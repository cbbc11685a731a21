package main

import (
	"sync/atomic"
	"time"

	"webiq/internal/surfaceweb"
)

// innerEngine is what the timed wrapper forwards to: the raw engine on
// build, the query cache on sweep.
type innerEngine interface {
	Search(query string, limit int) []surfaceweb.Snippet
	NumHits(query string) int
	NumHitsBatch(queries []string) []int
}

// timedEngine counts and times every call the pipeline makes into the
// search engine. It forwards NumHitsBatch, so the validator keeps its
// batched path and the traced run executes the same program as the
// untraced one. delay is added inside every timed call; only the
// self-test sets it, to show the engine's busy time is attributed to
// the engine alone.
type timedEngine struct {
	inner innerEngine
	delay time.Duration

	searchCalls, numHitsCalls, batchCalls, batchQueries atomic.Int64
	searchNs, numHitsNs, batchNs                        atomic.Int64
}

func (e *timedEngine) Search(query string, limit int) []surfaceweb.Snippet {
	t := time.Now()
	e.plant()
	out := e.inner.Search(query, limit)
	e.searchNs.Add(int64(time.Since(t)))
	e.searchCalls.Add(1)
	return out
}

func (e *timedEngine) NumHits(query string) int {
	t := time.Now()
	e.plant()
	out := e.inner.NumHits(query)
	e.numHitsNs.Add(int64(time.Since(t)))
	e.numHitsCalls.Add(1)
	return out
}

func (e *timedEngine) NumHitsBatch(queries []string) []int {
	t := time.Now()
	e.plant()
	out := e.inner.NumHitsBatch(queries)
	e.batchNs.Add(int64(time.Since(t)))
	e.batchCalls.Add(1)
	e.batchQueries.Add(int64(len(queries)))
	return out
}

func (e *timedEngine) plant() {
	if e.delay > 0 {
		time.Sleep(e.delay)
	}
}

// engineCounts is a snapshot of the wrapper's counters.
type engineCounts struct {
	searchCalls, numHitsCalls, batchCalls, batchQueries int64
	search, numHits, batch                              time.Duration
}

func (e *timedEngine) counts() engineCounts {
	return engineCounts{
		searchCalls: e.searchCalls.Load(), numHitsCalls: e.numHitsCalls.Load(),
		batchCalls: e.batchCalls.Load(), batchQueries: e.batchQueries.Load(),
		search: time.Duration(e.searchNs.Load()), numHits: time.Duration(e.numHitsNs.Load()),
		batch: time.Duration(e.batchNs.Load()),
	}
}

// sub returns the counts accumulated since an earlier snapshot.
func (c engineCounts) sub(o engineCounts) engineCounts {
	return engineCounts{
		searchCalls: c.searchCalls - o.searchCalls, numHitsCalls: c.numHitsCalls - o.numHitsCalls,
		batchCalls: c.batchCalls - o.batchCalls, batchQueries: c.batchQueries - o.batchQueries,
		search: c.search - o.search, numHits: c.numHits - o.numHits, batch: c.batch - o.batch,
	}
}

// into adds the engine metrics to one iteration's layer map.
func (c engineCounts) into(m map[string]float64) {
	m["surfaceweb.search.calls"] += float64(c.searchCalls)
	m["surfaceweb.search.busy_s"] += c.search.Seconds()
	m["surfaceweb.numhits.calls"] += float64(c.numHitsCalls)
	m["surfaceweb.numhits.busy_s"] += c.numHits.Seconds()
	m["surfaceweb.batch.calls"] += float64(c.batchCalls)
	m["surfaceweb.batch.queries"] += float64(c.batchQueries)
	m["surfaceweb.batch.busy_s"] += c.batch.Seconds()
}
