package deepweb

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"webiq/internal/dataset"
	"webiq/internal/kb"
)

// matchLinear is the row-by-row scan the value index replaced, kept as
// its oracle: every probe lowers and compares every row's value, or
// parses every row's number.
func (s *Source) matchLinear(attrID, value string) []int32 {
	c := s.cols[attrID].concept
	var out []int32
	if c != nil && c.Numeric != nil {
		v, ok := parseNumber(value)
		if !ok {
			return nil
		}
		lo, hi := float64(c.Numeric.Min), float64(c.Numeric.Max)
		if c.Numeric.Decimals > 0 {
			scale := 1.0
			for i := 0; i < c.Numeric.Decimals; i++ {
				scale *= 10
			}
			lo, hi = lo/scale, hi/scale
		}
		if v < lo || v > hi {
			return nil
		}
		for i, row := range s.table {
			rv, ok := parseNumber(row[attrID])
			if ok && rv <= v {
				out = append(out, int32(i))
				if len(out) >= 10 {
					break
				}
			}
		}
		return out
	}
	want := strings.ToLower(strings.TrimSpace(value))
	if want == "" {
		return nil
	}
	for i, row := range s.table {
		if strings.ToLower(row[attrID]) == want {
			out = append(out, int32(i))
			if len(out) >= 10 {
				break
			}
		}
	}
	return out
}

// renderResultsFprintf is the Fprintf renderer renderResults replaced.
func (s *Source) renderResultsFprintf(rows []int32) string {
	var b strings.Builder
	fmt.Fprintf(&b, "<html><title>%s results</title><body>", s.ifc.Source)
	fmt.Fprintf(&b, "<p>Found %d results matching your search.</p><ul>", len(rows))
	for i, r := range rows {
		if i >= 5 {
			break
		}
		b.WriteString("<li>")
		for _, a := range s.ifc.Attributes {
			if v := s.table[r][a.ID]; v != "" {
				fmt.Fprintf(&b, "%s: %s; ", a.Label, v)
			}
		}
		b.WriteString("</li>")
	}
	b.WriteString("</ul></body></html>")
	return b.String()
}

// probeValues returns, for one attribute of src, every value of its
// table column in case, whitespace and absent variants, plus the
// attribute's predefined values and, for numeric attributes, values at
// and around the range edges in each accepted spelling.
func probeValues(src *Source, attrID string) []string {
	var out []string
	seen := map[string]bool{}
	add := func(v string) {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	for _, row := range src.table {
		v := row[attrID]
		for _, w := range []string{v, strings.ToUpper(v), strings.ToLower(v), " " + v + "\t", v + "x"} {
			add(w)
		}
	}
	for _, v := range src.ifc.AttributeByID(attrID).Instances {
		add(v)
		add(strings.ToUpper(v))
	}
	add("")
	add("   ")
	add("absent-value")
	if c := src.cols[attrID].concept; c != nil && c.Numeric != nil {
		lo, hi := float64(c.Numeric.Min), float64(c.Numeric.Max)
		for i := 0; i < c.Numeric.Decimals; i++ {
			lo, hi = lo/10, hi/10
		}
		for _, f := range []float64{lo, hi, lo - 1, hi + 1, lo - 0.001, hi + 0.001, (lo + hi) / 2} {
			s := strconv.FormatFloat(f, 'f', -1, 64)
			add(s)
			add("$" + s)
			add("$ " + s)
		}
		add(strconv.FormatFloat(hi, 'f', 0, 64) + ",000")
		add("NaN")
		add("Inf")
	}
	return out
}

func testPools(t *testing.T) []*Pool {
	t.Helper()
	var pools []*Pool
	for _, dom := range kb.Domains() {
		ds := dataset.Generate(dom, dataset.DefaultConfig())
		cfg := DefaultConfig()
		cfg.PartialQueryProb = 1.0
		pools = append(pools, BuildPool(ds, dom, cfg))
	}
	return pools
}

// TestValueIndexMatchesLinearScan probes every attribute of every
// source with every table value and its variants: the indexed match
// must select the rows the linear scan selects, in the same order, and
// the result page must be the Fprintf renderer's, byte for byte.
func TestValueIndexMatchesLinearScan(t *testing.T) {
	for _, pool := range testPools(t) {
		for _, src := range pool.sources {
			for _, a := range src.ifc.Attributes {
				for _, v := range probeValues(src, a.ID) {
					got := src.match(a.ID, v, nil)
					want := src.matchLinear(a.ID, v)
					if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
						t.Fatalf("%s %s %q: index rows %v, linear scan %v", src.ifc.ID, a.ID, v, got, want)
					}
					if len(want) > 0 {
						if g, w := src.renderResults(got), src.renderResultsFprintf(want); g != w {
							t.Fatalf("%s %s %q: page\n%s\nwant\n%s", src.ifc.ID, a.ID, v, g, w)
						}
					}
				}
			}
		}
	}
}

// TestValueIndexConcurrentProbes probes fresh sources from many
// goroutines at once, so the lazy index builds race with probes of the
// same attribute (run it under -race): every page must equal the one
// the linear scan and Fprintf renderer produce.
func TestValueIndexConcurrentProbes(t *testing.T) {
	for _, pool := range testPools(t) {
		type probe struct {
			src               *Source
			attr, value, want string
		}
		var probes []probe
		for _, src := range pool.sources {
			for _, a := range src.ifc.Attributes {
				for i, v := range probeValues(src, a.ID) {
					if i%7 != 0 {
						continue
					}
					want := ""
					if !a.HasInstances() || containsFold(a.Instances, v) {
						if rows := src.matchLinear(a.ID, v); len(rows) > 0 {
							want = src.renderResultsFprintf(rows)
						}
					}
					probes = append(probes, probe{src, a.ID, v, want})
				}
			}
		}
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(probes)+w; i++ {
					p := probes[i%len(probes)]
					got := p.src.Probe(p.attr, p.value)
					if p.want != "" && got != p.want {
						t.Errorf("%s %s %q: page %q, want %q", p.src.ifc.ID, p.attr, p.value, got, p.want)
						return
					}
					if p.want == "" && AnalyzeResponse(got) {
						t.Errorf("%s %s %q: success page %q, linear scan finds nothing", p.src.ifc.ID, p.attr, p.value, got)
						return
					}
				}
			}(w)
		}
		wg.Wait()
	}
}
