// Package deepweb simulates Deep-Web data sources: each query interface
// of the dataset is backed by a relational table generated from the
// domain knowledge base. A probe sets one attribute to a candidate value
// (other attributes keep their defaults) and yields a response page that
// must be classified as success or failure by the response-analysis
// heuristics — exactly the observable Attr-Deep consumes.
package deepweb

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"time"

	"webiq/internal/htmlform"
	"webiq/internal/kb"
	"webiq/internal/nlp"
	"webiq/internal/obs"
	"webiq/internal/schema"
)

// Config controls source construction.
type Config struct {
	// Seed drives table generation.
	Seed int64
	// Records is the backing-table size per source.
	Records int
	// PartialQueryProb is the probability a source accepts partial
	// queries (values left unspecified). The paper notes many — not all —
	// interfaces permit them; sources that do not reject every probe.
	PartialQueryProb float64
	// MinLatency/MaxLatency bound the simulated per-probe round trip.
	MinLatency, MaxLatency time.Duration
}

// DefaultConfig returns the configuration used by the experiments.
func DefaultConfig() Config {
	return Config{
		Seed:             1,
		Records:          300,
		PartialQueryProb: 0.9,
		MinLatency:       300 * time.Millisecond,
		MaxLatency:       1500 * time.Millisecond,
	}
}

// Source is one Deep-Web data source.
type Source struct {
	ifc *schema.Interface
	// cols maps attribute ID to the attribute's column: its generating
	// concept and the value index probes read.
	cols map[string]*column
	// table holds the backing records: attribute ID -> value.
	table []map[string]string
	// partialOK reports whether the source accepts partial queries.
	partialOK bool
	pool      *Pool
}

// maxMatches caps the rows a probe selects; a result page lists the
// first few of them and reports the count.
const maxMatches = 10

// column is one attribute of a source: the concept that generates its
// values and the index of its backing-table column. The index is built
// on the attribute's first probe, never with the pool, so building a
// pool costs what it always has; once built it is read without a lock.
type column struct {
	concept *kb.Concept
	once    sync.Once
	// rows maps each lowered value of a string column to its first
	// maxMatches row indices in table order.
	rows map[string][]int32
	// nums and numOK hold a numeric column parsed once, row by row.
	nums  []float64
	numOK []bool
}

func (c *column) numeric() bool { return c.concept != nil && c.concept.Numeric != nil }

// index builds the column's value index on first use and returns it.
func (s *Source) index(attrID string) *column {
	c := s.cols[attrID]
	c.once.Do(func() {
		if c.numeric() {
			c.nums = make([]float64, len(s.table))
			c.numOK = make([]bool, len(s.table))
			for i, row := range s.table {
				c.nums[i], c.numOK[i] = parseNumber(row[attrID])
			}
			return
		}
		c.rows = map[string][]int32{}
		for i, row := range s.table {
			// Empty values never match: a probe for "" selects nothing.
			if v := row[attrID]; v != "" {
				k := strings.ToLower(v)
				if r := c.rows[k]; len(r) < maxMatches {
					c.rows[k] = append(r, int32(i))
				}
			}
		}
	})
	return c
}

// Pool is the set of sources for a dataset, with shared probe
// accounting for the overhead experiment.
type Pool struct {
	mu          sync.Mutex
	sources     map[string]*Source
	cfg         Config
	queries     int
	virtualTime time.Duration

	// Optional metrics; nil-safe no-ops when Instrument was not called.
	mProbes  *obs.CounterVec // labelled by source interface ID
	mLatency *obs.Histogram
}

// Instrument registers the pool's metrics on r:
//
//	webiq_pool_probes_total{source}     probes served per source
//	webiq_pool_probe_virtual_seconds    per-probe simulated round trip
//
// Pools for several domains may share one registry: the families are
// registered once and the per-source label keeps them apart. Passing
// nil leaves the pool uninstrumented (the default).
func (p *Pool) Instrument(r *obs.Registry) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.mProbes = r.CounterVec("webiq_pool_probes_total", "Deep-Web probe queries served, by source.", "source")
	p.mLatency = r.Histogram("webiq_pool_probe_virtual_seconds", "Simulated per-probe round-trip latency in seconds.", nil)
}

// BuildPool constructs sources for every interface in the dataset.
func BuildPool(ds *schema.Dataset, dom *kb.Domain, cfg Config) *Pool {
	rng := rand.New(rand.NewSource(cfg.Seed ^ int64(hash32(ds.Domain))))
	conceptByID := map[string]*kb.Concept{}
	for _, c := range dom.Concepts {
		conceptByID[c.ID] = c
	}
	p := &Pool{sources: map[string]*Source{}, cfg: cfg}
	for _, ifc := range ds.Interfaces {
		s := &Source{
			ifc:       ifc,
			cols:      make(map[string]*column, len(ifc.Attributes)),
			partialOK: rng.Float64() < cfg.PartialQueryProb,
			pool:      p,
		}
		for _, a := range ifc.Attributes {
			s.cols[a.ID] = &column{concept: conceptByID[a.ConceptID]}
		}
		s.table = generateTable(ifc, s.cols, cfg.Records, rng)
		p.sources[ifc.ID] = s
	}
	return p
}

// Source returns the source backing the given interface ID, or nil.
// The source set is fixed when the pool is built, so the lookup takes
// no lock.
func (p *Pool) Source(interfaceID string) *Source {
	return p.sources[interfaceID]
}

// QueryCount returns the number of probes served across the pool.
func (p *Pool) QueryCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.queries
}

// VirtualTime returns the accumulated simulated probe time.
func (p *Pool) VirtualTime() time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.virtualTime
}

// ResetAccounting zeroes the probe counter and virtual clock.
func (p *Pool) ResetAccounting() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.queries = 0
	p.virtualTime = 0
}

// charge accounts one probe of attrID = value on sourceID. Its
// simulated latency hashes the key "sourceID|attrID|value".
func (p *Pool) charge(sourceID, attrID, value string) {
	lat := p.cfg.MinLatency
	if span := p.cfg.MaxLatency - p.cfg.MinLatency; span > 0 {
		h := hashAppend(hashAppend(hashAppend(hashAppend(hashAppend(fnvOffset, sourceID), "|"), attrID), "|"), value)
		lat += time.Duration(int64(h) % int64(span))
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.queries++
	p.virtualTime += lat
	p.mProbes.With(sourceID).Inc()
	p.mLatency.Observe(lat.Seconds())
}

// generateTable samples Records rows; each row assigns every attribute a
// value from its concept's full vocabulary (sources hold data well
// beyond what their interfaces show as predefined options).
func generateTable(ifc *schema.Interface, cols map[string]*column, n int, rng *rand.Rand) []map[string]string {
	rows := make([]map[string]string, n)
	// Pre-render numeric pools once per attribute.
	pools := map[string][]string{}
	for _, a := range ifc.Attributes {
		c := cols[a.ID].concept
		if c == nil {
			continue
		}
		if c.Numeric != nil {
			pools[a.ID] = c.Numeric.Sample(rng, 50)
		} else {
			pools[a.ID] = c.AllInstances()
		}
	}
	for i := range rows {
		row := map[string]string{}
		for _, a := range ifc.Attributes {
			pool := pools[a.ID]
			if len(pool) == 0 {
				continue
			}
			row[a.ID] = pool[rng.Intn(len(pool))]
		}
		rows[i] = row
	}
	return rows
}

// Probe submits a query with the given attribute set to value and all
// other attributes left at their defaults (empty), returning the
// response page. It implements the "Formulate and Submit a Query" step
// of Section 4.
func (s *Source) Probe(attrID, value string) string {
	s.pool.charge(s.ifc.ID, attrID, value)

	attr := s.ifc.AttributeByID(attrID)
	if attr == nil {
		return renderError("unknown field")
	}
	if !s.partialOK {
		return renderError("please complete all required fields before submitting")
	}
	// Predefined-value attributes reject values outside their list —
	// the reason Step 2 of Section 5 cannot use Attr-Deep for them.
	if attr.HasInstances() && !containsFold(attr.Instances, value) {
		return renderError("invalid selection for " + attr.Label)
	}
	var buf [maxMatches]int32
	matches := s.match(attrID, value, buf[:0])
	if len(matches) == 0 {
		return renderError("sorry, no results were found matching your search")
	}
	return s.renderResults(matches)
}

// match selects backing rows whose value for attrID matches the probe
// value, returning their indices: the first maxMatches in table order.
// String attributes match case-insensitively; numeric attributes act as
// range filters accepting any parseable value within the concept's
// range. Numeric matches are appended to buf; string matches are the
// column index's own slice, which callers must not modify.
func (s *Source) match(attrID, value string, buf []int32) []int32 {
	c := s.index(attrID)
	if c.numeric() {
		v, ok := parseNumber(value)
		if !ok {
			return nil
		}
		num := c.concept.Numeric
		lo, hi := float64(num.Min), float64(num.Max)
		if num.Decimals > 0 {
			scale := 1.0
			for i := 0; i < num.Decimals; i++ {
				scale *= 10
			}
			lo, hi = lo/scale, hi/scale
		}
		if v < lo || v > hi {
			return nil
		}
		// A numeric filter inside the range selects roughly the rows at
		// or below the value (max-style filters dominate interfaces).
		for i, rv := range c.nums {
			if c.numOK[i] && rv <= v {
				buf = append(buf, int32(i))
				if len(buf) >= maxMatches {
					break
				}
			}
		}
		return buf
	}
	var lower [64]byte
	want := nlp.AppendLower(lower[:0], strings.TrimSpace(value))
	if len(want) == 0 {
		return nil
	}
	return c.rows[string(want)]
}

// renderResults renders a result page listing the matched records.
func (s *Source) renderResults(rows []int32) string {
	var b strings.Builder
	b.Grow(1024)
	b.WriteString("<html><title>")
	b.WriteString(s.ifc.Source)
	b.WriteString(" results</title><body><p>Found ")
	b.WriteString(strconv.Itoa(len(rows)))
	b.WriteString(" results matching your search.</p><ul>")
	for i, r := range rows {
		if i >= 5 {
			break
		}
		b.WriteString("<li>")
		row := s.table[r]
		for _, a := range s.ifc.Attributes {
			if v := row[a.ID]; v != "" {
				b.WriteString(a.Label)
				b.WriteString(": ")
				b.WriteString(v)
				b.WriteString("; ")
			}
		}
		b.WriteString("</li>")
	}
	b.WriteString("</ul></body></html>")
	return b.String()
}

var errorTemplates = []string{
	"<html><body><p>Error: %s.</p></body></html>",
	"<html><body><p>We are sorry: %s. Please try again.</p></body></html>",
	"<html><body><p>No results found. %s.</p></body></html>",
}

func renderError(msg string) string {
	return fmt.Sprintf(errorTemplates[int(hash32(msg))%len(errorTemplates)], msg)
}

// Interface returns the interface this source serves.
func (s *Source) Interface() *schema.Interface { return s.ifc }

// FormPage renders the source's query interface as the HTML form page a
// crawler would fetch; htmlform.Extract recovers the interface from it.
func (s *Source) FormPage() string { return htmlform.Render(s.ifc) }

// AcceptsPartialQueries reports whether the source tolerates unfilled
// attributes.
func (s *Source) AcceptsPartialQueries() bool { return s.partialOK }

func containsFold(list []string, v string) bool {
	for _, x := range list {
		if strings.EqualFold(x, v) {
			return true
		}
	}
	return false
}

func parseNumber(s string) (float64, bool) {
	s = strings.TrimSpace(s)
	s = strings.TrimPrefix(s, "$")
	s = strings.ReplaceAll(s, ",", "")
	v, err := strconv.ParseFloat(s, 64)
	return v, err == nil
}

// hash32 is 32-bit FNV-1a.
func hash32(s string) uint32 { return hashAppend(fnvOffset, s) }

const fnvOffset uint32 = 2166136261

// hashAppend continues an FNV-1a hash h over s, so hashing the parts
// of a key in turn equals hashing their concatenation.
func hashAppend(h uint32, s string) uint32 {
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}
