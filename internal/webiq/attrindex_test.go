package webiq

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"webiq/internal/dataset"
	"webiq/internal/kb"
	"webiq/internal/schema"
	"webiq/internal/sim"
	"webiq/internal/synth"
)

// domainConflictDataset gives x a predefined sibling of x/from whose
// city values are y/from's, so y/from may not donate to x/from
// (Section 5, case 1).
func domainConflictDataset() *schema.Dataset {
	ds := twoInterfaceDataset()
	ds.Interfaces[0].Attributes = append(ds.Interfaces[0].Attributes,
		mkAttr("x", "near", "Nearby city", "Boston", "Chicago", "Denver"))
	return ds
}

// strictPassDataset makes Cabin share two values with Class, enough
// for the strict pass of predefined-attribute borrowing.
func strictPassDataset() *schema.Dataset {
	ds := twoInterfaceDataset()
	ds.Interfaces[1].Attributes[1].Instances = []string{"Economy", "Business", "First Class"}
	return ds
}

// indexTestDatasets returns the five paper domains at seeds 1-3, the
// 20 synthetic scenarios the quality gate evaluates and the hand-built
// datasets of the borrowing unit tests, each under a descriptive name.
func indexTestDatasets() map[string]*schema.Dataset {
	out := map[string]*schema.Dataset{
		"hand/two-interface":   twoInterfaceDataset(),
		"hand/domain-conflict": domainConflictDataset(),
		"hand/strict-pass":     strictPassDataset(),
	}
	for seed := int64(1); seed <= 3; seed++ {
		cfg := dataset.DefaultConfig()
		cfg.Seed = seed
		for _, d := range kb.Domains() {
			out[fmt.Sprintf("%s/seed%d", d.Key, seed)] = dataset.Generate(d, cfg)
		}
	}
	for _, sc := range synth.Sweep(20, 1) {
		out[sc.Name] = dataset.Generate(sc.Domain, sc.DatasetConfig(1))
	}
	return out
}

// checkIndexAgainstOracle compares every indexed form the borrowing
// steps read with the pairwise oracle, over every (recipient, donor)
// pair of ds.
func checkIndexAgainstOracle(t *testing.T, name string, ix *attrIndex, a *Acquirer, ds *schema.Dataset) {
	t.Helper()
	attrs := ds.AllAttributes()
	for _, r := range attrs {
		for _, d := range attrs {
			if got, want := ix.entry(r).vec.Cosine(ix.entry(d).vec), sim.LabelSim(r.Label, d.Label); got != want {
				t.Fatalf("%s: label sim %s/%s = %v, oracle %v", name, r.ID, d.ID, got, want)
			}
			if got, want := overlap(ix.all(d), ix.instances(r)), sim.ValueOverlap(d.AllInstances(), r.Instances); got != want {
				t.Fatalf("%s: overlap %s/%s = %v, oracle %v", name, r.ID, d.ID, got, want)
			}
			if !r.HasInstances() || len(d.AllInstances()) == 0 {
				continue // the scan has nothing to compare
			}
			m := a.cfg.BorrowValueMatches
			if got, want := ix.verySimilar(ix.instances(r), ix.all(d), m), domainsVerySimilar(r.Instances, d.AllInstances(), m); got != want {
				t.Fatalf("%s: verySimilar %s/%s min %d = %v, oracle %v", name, r.ID, d.ID, m, got, want)
			}
		}
	}
	for _, ifc := range ds.Interfaces {
		for _, r := range ifc.Attributes {
			got, want := a.freeTextDonors(ix, ds, ifc, r), a.borrowDonorsFreeText(ds, ifc, r)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: donors of %s = %v, oracle %v", name, r.ID, got, want)
			}
			if gotV, wantV := a.predefBorrowed(ix, ds, ifc, r), a.borrowValuesPredef(ds, ifc, r); !reflect.DeepEqual(gotV, wantV) {
				t.Fatalf("%s: borrowed values of %s = %v, oracle %v", name, r.ID, gotV, wantV)
			}
		}
	}
}

// TestAttrIndexMatchesOracle pins the indexed borrowing path to the
// pairwise one it replaced, on real datasets before and after
// attributes acquire values (which must refresh their entries).
func TestAttrIndexMatchesOracle(t *testing.T) {
	a := testAcquirer(DefaultConfig())
	for name, ds := range indexTestDatasets() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			ix := newAttrIndex()
			checkIndexAgainstOracle(t, name, ix, a, ds)

			// Every free-text attribute acquires the values of the
			// attribute after it, changing case and padding some of them
			// so the sim and ASCII folds diverge; the index is reused
			// across the change.
			attrs := ds.AllAttributes()
			for i, r := range attrs {
				if r.HasInstances() {
					continue
				}
				var vals []string
				for j, v := range attrs[(i+1)%len(attrs)].Instances {
					switch j % 3 {
					case 1:
						v = strings.ToUpper(v)
					case 2:
						v = " " + v + "\t"
					}
					vals = append(vals, v)
				}
				ix.addAcquired(r, vals, a.cfg.MaxAcquired)
			}
			checkIndexAgainstOracle(t, name+"+acquired", ix, a, ds)
		})
	}
}

// TestIndexedBorrowingCases pins the indexed borrowing path to the
// outcomes the pairwise unit tests expect of the hand-built datasets.
func TestIndexedBorrowingCases(t *testing.T) {
	a := testAcquirer(DefaultConfig())

	ds := twoInterfaceDataset()
	x, y := ds.Interfaces[0], ds.Interfaces[1]
	donors := a.freeTextDonors(newAttrIndex(), ds, x, x.Attributes[0])
	if len(donors) != 1 || donors[0].Label != "From city" {
		t.Errorf("donors of From = %v, want [From city]", donors)
	}
	for _, d := range a.freeTextDonors(newAttrIndex(), ds, y, y.Attributes[0]) {
		if d.InterfaceID == "y" {
			t.Errorf("donor %s from the target's own interface", d.ID)
		}
	}
	// Cabin shares only Economy with Class, so the strict pass finds no
	// donor and the fallback borrows from every attribute.
	got := a.predefBorrowed(newAttrIndex(), ds, x, x.Attributes[1])
	if len(got) == 0 {
		t.Error("fallback did not borrow anything")
	}
	for _, v := range got {
		if v == "Economy" || v == "Business" {
			t.Errorf("borrowed value %q already predefined on target", v)
		}
	}

	ds = domainConflictDataset()
	if donors := a.freeTextDonors(newAttrIndex(), ds, ds.Interfaces[0], ds.Interfaces[0].Attributes[0]); len(donors) != 0 {
		t.Errorf("donor with sibling-overlapping domain not excluded: %v", donors)
	}

	ds = strictPassDataset()
	got = a.predefBorrowed(newAttrIndex(), ds, ds.Interfaces[0], ds.Interfaces[0].Attributes[1])
	if want := []string{"First Class"}; !reflect.DeepEqual(got, want) {
		t.Errorf("borrowed = %v, want %v (strict donors only)", got, want)
	}

	for _, c := range []struct {
		a, b []string
		min  int
		want bool
	}{
		{[]string{"a", "b"}, []string{"A", "B", "c"}, 2, true},
		{[]string{"a"}, []string{"b"}, 2, false},
		{[]string{"Chevrolet", "Mitsubishi"}, []string{"Chevrolets", "Mitsubishis"}, 2, true},
		{[]string{"Kia"}, []string{"Ki"}, 1, false},
	} {
		if got := newAttrIndex().verySimilar(newValueForms(c.a), newValueForms(c.b), c.min); got != c.want {
			t.Errorf("verySimilar(%q, %q, %d) = %v, want %v", c.a, c.b, c.min, got, c.want)
		}
	}
}

// TestAttrIndexRefreshesOnAcquire checks that an entry read before its
// attribute acquires values is re-read after.
func TestAttrIndexRefreshesOnAcquire(t *testing.T) {
	ds := twoInterfaceDataset()
	a := testAcquirer(DefaultConfig())
	ix := newAttrIndex()
	checkIndexAgainstOracle(t, "before", ix, a, ds)
	ix.addAcquired(ds.Interfaces[0].Attributes[0], []string{"Boston", " Denver", "AUSTIN"}, 10)
	checkIndexAgainstOracle(t, "after", ix, a, ds)
}

// FuzzDonorSimilarity compares the indexed value comparisons with the
// pairwise oracle on arbitrary value lists. Lists are encoded as one
// string with '|' between values.
func FuzzDonorSimilarity(f *testing.F) {
	f.Add("Boston|Chicago|Denver", "boston|CHICAGO|Dallas", 2)
	// Whitespace padding: sim's fold trims, the ASCII fold does not, so
	// an exact match also counts as a near match, a second time.
	f.Add(" Boston|x", "boston", 2)
	f.Add("Boston |Boston", "boston|BOSTON", 3)
	// Non-ASCII: sim's fold lowers Unicode, the ASCII fold does not.
	f.Add("München|Zürich", "MÜNCHEN|zürich", 2)
	f.Add("İstanbul|ΣΟΦΟΣ", "i̇stanbul|σοφος", 1)
	f.Add("Chevrolet|Mitsubishi", "Chevrolets|Mitsubishis", 2)
	f.Add("Kia|Ki", "Ki|Kia", 1)
	f.Add("bad\xffbyte|\xc3\x28", "BAD\xffBYTE|\xc3\x28", 2)
	f.Add("abcdefghi|abcdefghij", "abcdefghij|abcdefghi", 2)
	f.Add("", "a", 0)
	f.Fuzz(func(t *testing.T, as, bs string, m int) {
		a, b := strings.Split(as, "|"), strings.Split(bs, "|")
		if len(a) > 64 || len(b) > 64 {
			return
		}
		m %= 8
		ix := newAttrIndex()
		fa, fb := newValueForms(a), newValueForms(b)
		if got, want := shared(fa, fb), sim.SharedValues(a, b); got != want {
			t.Fatalf("shared(%q, %q) = %d, oracle %d", a, b, got, want)
		}
		if got, want := overlap(fa, fb), sim.ValueOverlap(a, b); got != want {
			t.Fatalf("overlap(%q, %q) = %v, oracle %v", a, b, got, want)
		}
		if got, want := ix.verySimilar(fa, fb, m), domainsVerySimilar(a, b, m); got != want {
			t.Fatalf("verySimilar(%q, %q, %d) = %v, oracle %v", a, b, m, got, want)
		}
	})
}
