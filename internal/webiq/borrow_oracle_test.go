package webiq

import (
	"sort"

	"webiq/internal/schema"
	"webiq/internal/sim"
)

// The pairwise borrowing code as it was before the attribute index:
// every (recipient, donor) pair re-folds, re-vectorizes and re-compares
// both value lists. It is kept here, and only here, as the oracle the
// indexed path must agree with (attrindex_test.go); the older unit
// tests in acquire_test.go exercise it directly.

// borrowDonorsFreeText is freeTextDonors without the index.
func (a *Acquirer) borrowDonorsFreeText(ds *schema.Dataset, ifc *schema.Interface, attr *schema.Attribute) []*schema.Attribute {
	type scored struct {
		attr *schema.Attribute
		sim  float64
	}
	var donors []scored
	for _, other := range ds.Interfaces {
		if other.ID == ifc.ID {
			continue
		}
		for _, cand := range other.Attributes {
			if len(cand.AllInstances()) == 0 {
				continue
			}
			ls := sim.LabelSim(attr.Label, cand.Label)
			if ls < a.cfg.BorrowLabelSim {
				continue
			}
			if domainMatchesSibling(ifc, attr, cand) {
				continue
			}
			donors = append(donors, scored{cand, ls})
		}
	}
	sort.Slice(donors, func(i, j int) bool {
		if donors[i].sim != donors[j].sim {
			return donors[i].sim > donors[j].sim
		}
		return donors[i].attr.ID < donors[j].attr.ID
	})
	out := make([]*schema.Attribute, len(donors))
	for i, d := range donors {
		out[i] = d.attr
	}
	return out
}

// domainMatchesSibling is siblingOverlaps without the index.
func domainMatchesSibling(ifc *schema.Interface, attr *schema.Attribute, cand *schema.Attribute) bool {
	for _, y := range ifc.Attributes {
		if y.ID == attr.ID || !y.HasInstances() {
			continue
		}
		if sim.ValueOverlap(cand.AllInstances(), y.Instances) >= 0.3 {
			return true
		}
	}
	return false
}

// borrowValuesPredef is predefBorrowed without the index.
func (a *Acquirer) borrowValuesPredef(ds *schema.Dataset, ifc *schema.Interface, attr *schema.Attribute) []string {
	out := a.collectBorrowValues(ds, ifc, attr, true)
	if len(out) == 0 {
		out = a.collectBorrowValues(ds, ifc, attr, false)
	}
	if len(out) > a.cfg.MaxAcquired {
		out = out[:a.cfg.MaxAcquired]
	}
	return out
}

// collectBorrowValues is borrowCandidates without the index.
func (a *Acquirer) collectBorrowValues(ds *schema.Dataset, ifc *schema.Interface, attr *schema.Attribute, requireSimilar bool) []string {
	have := map[string]bool{}
	for _, v := range attr.Instances {
		have[foldValue(v)] = true
	}
	var out []string
	seen := map[string]bool{}
	for _, other := range ds.Interfaces {
		if other.ID == ifc.ID {
			continue
		}
		for _, cand := range other.Attributes {
			vals := cand.AllInstances()
			if len(vals) == 0 {
				continue
			}
			if requireSimilar && !domainsVerySimilar(attr.Instances, vals, a.cfg.BorrowValueMatches) {
				continue
			}
			for _, v := range vals {
				f := foldValue(v)
				if have[f] || seen[f] {
					continue
				}
				seen[f] = true
				out = append(out, v)
			}
		}
	}
	return out
}

// domainsVerySimilar reports whether at least minMatches pairs of
// values, one from each domain, are very similar (exact fold match or
// high edit similarity). EditSimAtLeast(x, y, t) is EditSim(x, y) >= t
// (pinned by sim's tests), without the full DP on dissimilar pairs.
func domainsVerySimilar(a, b []string, minMatches int) bool {
	matches := sim.SharedValues(a, b)
	if matches >= minMatches {
		return true
	}
	// Look for near-identical pairs beyond the exact matches.
	for _, x := range a {
		if matches >= minMatches {
			return true
		}
		for _, y := range b {
			if sim.EditSimAtLeast(x, y, 0.9) && foldValue(x) != foldValue(y) {
				matches++
				break
			}
		}
	}
	return matches >= minMatches
}
