package webiq

import (
	"bytes"
	"slices"

	"webiq/internal/schema"
	"webiq/internal/sim"
)

// attrIndex holds, for one AcquireAll run, every attribute's values in
// each form the borrowing steps compare, so that a value is folded,
// sorted and vectorized once per run instead of once per (recipient,
// donor) pair. AcquireAllCtx creates it and passes it down; it is never
// stored on the Acquirer, so concurrent runs share nothing. Entries are
// filled on first use, from the sequential attribute loop only.
type attrIndex struct {
	entries map[*schema.Attribute]*attrEntry
	// edit is the one edit-distance scratch of every near-value scan.
	edit sim.EditScratch
}

// attrEntry is one attribute's forms: its label vector, and the value
// forms of its predefined instances and of all its instances.
type attrEntry struct {
	vec  sim.Vector
	inst *valueForms
	// all covers AllInstances(); nil until first use and again after
	// the attribute acquires values (see refresh).
	all *valueForms
}

// valueForms holds a value list in every form borrowing needs.
type valueForms struct {
	vals []string
	// fold is sim's fold (trim + Unicode lower) with rune counts: the
	// form of the exact-match count, the overlap and the edit scan.
	fold sim.FoldedList
	// ascii is foldValue's form (ASCII lower, untrimmed): the distinct-
	// value guard of the near-match scan and the dedup key of borrowing.
	ascii asciiFoldList
	// uniq indexes one value per distinct fold, in byte order of the
	// folds: the sorted form of sim.FoldSet(vals).
	uniq []int
}

// asciiFoldList is the appendFoldValue analogue of sim.FoldedList: the
// ASCII-lowered forms of a value list in one arena.
type asciiFoldList struct {
	arena []byte
	offs  []int
}

func (fl *asciiFoldList) at(i int) []byte { return fl.arena[fl.offs[i]:fl.offs[i+1]] }

func newAttrIndex() *attrIndex {
	return &attrIndex{entries: map[*schema.Attribute]*attrEntry{}}
}

func newValueForms(vals []string) *valueForms {
	f := &valueForms{vals: vals}
	f.fold.Reset(vals)
	f.ascii.offs = append(make([]int, 0, len(vals)+1), 0)
	for _, v := range vals {
		f.ascii.arena = appendFoldValue(f.ascii.arena, v)
		f.ascii.offs = append(f.ascii.offs, len(f.ascii.arena))
	}
	order := make([]int, len(vals))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(i, j int) int { return bytes.Compare(f.fold.At(i), f.fold.At(j)) })
	f.uniq = order[:0]
	for k, i := range order {
		if k == 0 || !bytes.Equal(f.fold.At(i), f.fold.At(f.uniq[len(f.uniq)-1])) {
			f.uniq = append(f.uniq, i)
		}
	}
	return f
}

func (ix *attrIndex) entry(a *schema.Attribute) *attrEntry {
	e := ix.entries[a]
	if e == nil {
		e = &attrEntry{vec: sim.LabelVector(a.Label), inst: newValueForms(a.Instances)}
		ix.entries[a] = e
	}
	return e
}

// instances returns the forms of a's predefined instances, which no
// acquisition changes.
func (ix *attrIndex) instances(a *schema.Attribute) *valueForms { return ix.entry(a).inst }

// all returns the forms of a.AllInstances().
func (ix *attrIndex) all(a *schema.Attribute) *valueForms {
	e := ix.entry(a)
	if e.all == nil {
		if len(a.Acquired) == 0 {
			e.all = e.inst
		} else {
			e.all = newValueForms(a.AllInstances())
		}
	}
	return e.all
}

// addAcquired is addAcquired that keeps a's entry current: once values
// are appended, the next all(a) re-reads AllInstances.
func (ix *attrIndex) addAcquired(a *schema.Attribute, values []string, maxTotal int) int {
	added := addAcquired(a, values, maxTotal)
	if e := ix.entries[a]; e != nil && added > 0 {
		e.all = nil
	}
	return added
}

// shared counts the distinct folded values present in both lists — the
// sim.SharedValues count — by merging their sorted distinct folds.
func shared(a, b *valueForms) int {
	n := 0
	for i, j := 0, 0; i < len(a.uniq) && j < len(b.uniq); {
		switch c := bytes.Compare(a.fold.At(a.uniq[i]), b.fold.At(b.uniq[j])); {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// overlap is sim.ValueOverlap(a.vals, b.vals): shared distinct folds
// over the smaller distinct count, 0 if either list is empty.
func overlap(a, b *valueForms) float64 {
	if len(a.uniq) == 0 || len(b.uniq) == 0 {
		return 0
	}
	return float64(shared(a, b)) / float64(min(len(a.uniq), len(b.uniq)))
}

// nearValueSim is the edit similarity at which two values count as
// very similar. At 0.9 a pair of folded values both shorter than 10
// bytes admits no edit at all (1 − 1/maxLen < 0.9), so the scan tests
// such pairs by equality alone.
const (
	nearValueSim   = 0.9
	nearValueExact = 10
)

// verySimilar reports whether at least minMatches pairs of values, one
// from each list, are very similar: distinct folded values present in
// both, then, for each value of a in order, one more match if some
// value of b is within nearValueSim of it without being the same value
// up to ASCII case. A value already counted as an exact match can
// count again here (" Boston" and "boston" fold alike but differ in
// ASCII form), which is the rule borrowing has always applied.
func (ix *attrIndex) verySimilar(a, b *valueForms, minMatches int) bool {
	matches := shared(a, b)
	for i := range a.vals {
		if matches >= minMatches {
			return true
		}
		fa, la, wa := a.fold.At(i), a.fold.Runes(i), a.ascii.at(i)
		for j := range b.vals {
			fb := b.fold.At(j)
			var near bool
			if len(fa) < nearValueExact && len(fb) < nearValueExact {
				near = bytes.Equal(fa, fb)
			} else {
				near = ix.edit.SimAtLeastFolded(fa, la, fb, b.fold.Runes(j), nearValueSim)
			}
			if near && !bytes.Equal(wa, b.ascii.at(j)) {
				matches++
				break
			}
		}
	}
	return matches >= minMatches
}
