package matcher

import (
	"webiq/internal/nlp"
	"webiq/internal/schema"
	"webiq/internal/sim"
)

// attrProfile caches the pure per-attribute facts AttrSim derives from
// an attribute before comparing it to another: the inferred value type,
// the interned folded value set (month-normalized for dates), and the
// numeric range. Profiling each attribute once turns the matrix build's
// per-pair type inference and set folding into a linear precomputation
// with bitwise-identical similarities.
// Values are folded once into term IDs of a table shared across the
// Match call, so the O(n²) pairwise overlaps compare integers.
type attrProfile struct {
	labelID int
	typ     ValueType
	empty   bool                // no instances at all
	foldSet map[uint32]struct{} // interned folded values; month-normalized when typ is date
	lo, hi  float64
	rangeOK bool
}

// buildProfiles profiles every attribute and returns the profiles plus
// the distinct-label similarity matrix; profile i's labelID indexes it.
// The per-attribute work runs on the matcher's worker pool.
func buildProfiles(attrs []*schema.Attribute, workers int) ([]attrProfile, [][]float64) {
	n := len(attrs)
	profiles := make([]attrProfile, n)
	labelIDs := map[string]int{}
	var labels []string
	for i, a := range attrs {
		id, ok := labelIDs[a.Label]
		if !ok {
			id = len(labels)
			labelIDs[a.Label] = id
			labels = append(labels, a.Label)
		}
		profiles[i].labelID = id
	}

	// One term table per Match call: value IDs are only compared within
	// this profile set, and the table (with its interned strings) is
	// released when the profiles are.
	terms := nlp.NewTermTable()
	parallelRows(n, workers, func(i int) {
		values := attrs[i].AllInstances()
		p := &profiles[i]
		if len(values) == 0 {
			p.empty = true
			return
		}
		p.typ = InferType(values)
		switch p.typ {
		case TypeInteger, TypeReal, TypeMonetary:
			p.lo, p.hi, p.rangeOK = valueRange(values)
		case TypeDate:
			p.foldSet = sim.FoldSetIDs(normalizeMonths(values), terms)
		default:
			p.foldSet = sim.FoldSetIDs(values, terms)
		}
	})

	vecs := make([]sim.Vector, len(labels))
	parallelRows(len(labels), workers, func(i int) {
		vecs[i] = sim.LabelVector(labels[i])
	})
	labelSims := make([][]float64, len(labels))
	parallelRows(len(labels), workers, func(i int) {
		labelSims[i] = make([]float64, len(labels))
		for j := range labels {
			labelSims[i][j] = vecs[i].Cosine(vecs[j])
		}
	})
	return profiles, labelSims
}

// domSim is DomSim over precomputed profiles: identical output, with
// the per-attribute derivations already done.
func domSim(a, b *attrProfile) float64 {
	if a.empty || b.empty || a.typ != b.typ {
		return 0
	}
	switch a.typ {
	case TypeInteger, TypeReal, TypeMonetary:
		return boundsOverlap(a.lo, a.hi, a.rangeOK, b.lo, b.hi, b.rangeOK)
	default: // TypeDate and TypeString share the set-overlap measure.
		return sim.OverlapIDSets(a.foldSet, b.foldSet)
	}
}
