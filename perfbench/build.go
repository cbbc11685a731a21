package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"webiq/internal/dataset"
	"webiq/internal/deepweb"
	"webiq/internal/kb"
	"webiq/internal/matcher"
	"webiq/internal/obs"
	"webiq/internal/snapshot"
	"webiq/internal/surfaceweb"
	"webiq/internal/unify"
	iq "webiq/internal/webiq"
)

// runBuild measures snapshot.BuildWorld: the offline build behind
// webiq-snapshot build and every boot without a snapshot.
func runBuild(r *run) error {
	if r.trace {
		return tracedBuildRun(r)
	}
	return runUnits(r, "build")
}

// buildUnit builds one world ops+1 times in a fresh process. The first
// build pays lazy initialization (regexes, lexicons, pools) and is
// set-up; its digest is the reference every later build of the world
// must reproduce.
func buildUnit(u *unitOut, seed int64, ops int) error {
	t, c := time.Now(), processCPU()
	ref, err := snapshot.BuildWorld(snapshot.BuildConfig{Seed: seed, Scale: 1})
	u.Setup, u.SetupCPU = time.Since(t).Seconds(), (processCPU() - c).Seconds()
	if err != nil {
		return fmt.Errorf("build world: %w", err)
	}
	refDigest, err := worldDigest(ref)
	if err != nil {
		return err
	}
	u.Record = map[string]any{"world_fingerprint": fmt.Sprintf("%016x", ref.Fingerprint)}
	ref = nil
	for len(u.Ops) < ops {
		runtime.GC()
		var w *snapshot.World
		if err := u.timeOp(func() (err error) {
			w, err = snapshot.BuildWorld(snapshot.BuildConfig{Seed: seed, Scale: 1})
			return err
		}); err != nil {
			return fmt.Errorf("build world: %w", err)
		}
		if digest, err := worldDigest(w); err != nil || digest != refDigest {
			u.fail("build %d of world %d: digest %s (%v), want %s", len(u.Ops), seed, digest, err, refDigest)
		}
	}
	return nil
}

func worldDigest(w *snapshot.World) (string, error) {
	b, err := w.Bytes()
	if err != nil {
		return "", fmt.Errorf("serialize world: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// tracedBuildRun alternates the traced wiring with plain BuildWorld
// calls on the seed's world, so the tracing overhead is measured on the
// same process and heap state. Both must reproduce the bytes of the
// process's first build.
func tracedBuildRun(r *run) error {
	ref, err := snapshot.BuildWorld(snapshot.BuildConfig{Seed: r.seed, Scale: 1})
	if err != nil {
		return fmt.Errorf("build world: %w", err)
	}
	refDigest, err := worldDigest(ref)
	if err != nil {
		return err
	}
	r.record["world_fingerprint"] = fmt.Sprintf("%016x", ref.Fingerprint)
	ref = nil

	var iters []map[string]float64
	var traced, plain []float64
	var counts map[string]float64
	start := time.Now()
	for time.Since(start).Seconds() < r.seconds || len(iters) == 0 {
		runtime.GC()
		t := time.Now()
		w, err := snapshot.BuildWorld(snapshot.BuildConfig{Seed: r.seed, Scale: 1})
		plain = append(plain, time.Since(t).Seconds())
		if err != nil {
			return fmt.Errorf("build world: %w", err)
		}
		r.attempted++
		if digest, err := worldDigest(w); err != nil || digest != refDigest {
			r.fail("untraced build digest %s (%v), want %s", digest, err, refDigest)
		}

		runtime.GC()
		w, m, wall, err := tracedBuild(r.seed, 0)
		if err != nil {
			return err
		}
		traced = append(traced, wall.Seconds())
		r.attempted++
		if digest, err := worldDigest(w); err != nil || digest != refDigest {
			r.fail("traced build digest %s (%v), want %s", digest, err, refDigest)
		}
		c := exactCounts(m, "surfaceweb.queries_charged", "webiq.surface_queries",
			"webiq.attr_surface_queries", "deepweb.probes",
			"surfaceweb.search.calls", "surfaceweb.numhits.calls",
			"surfaceweb.batch.calls", "surfaceweb.batch.queries")
		if counts == nil {
			counts = c
		} else if !sameCounts(c, counts) {
			r.fail("traced build %d counts %v, want %v", len(iters)+1, c, counts)
		}
		iters = append(iters, m)
	}
	for k, v := range medianOf(iters) {
		r.set(k, unitOf(k), v)
	}
	r.set("bench.trace_overhead_frac", "ratio", median(traced)/median(plain)-1)
	r.record["ops"] = len(iters)
	return nil
}

// buildLayers are the traced build's timed layers; together with the
// unattributed remainder they make up its wall time.
var buildLayers = []string{
	"surfaceweb.corpus_s", "dataset.generate_s", "deepweb.buildpool_s",
	"webiq.acquire_s", "matcher.match_s", "unify.build_s", "surfaceweb.freeze_s",
}

// tracedBuild wires the offline build the way snapshot.BuildWorld does,
// with the search engine wrapped and a timer around each layer call.
// Its world must serialize to BuildWorld's bytes.
func tracedBuild(seed int64, delay time.Duration) (*snapshot.World, map[string]float64, time.Duration, error) {
	m := map[string]float64{}
	start := time.Now()
	domains := kb.Domains()
	engine := surfaceweb.NewEngine()
	ccfg := surfaceweb.DefaultCorpusConfig()
	ccfg.Seed = seed
	t := time.Now()
	surfaceweb.BuildCorpus(engine, domains, ccfg)
	m["surfaceweb.corpus_s"] = time.Since(t).Seconds()
	v0 := engine.Terms().Len()
	q0 := engine.QueryCount()
	te := &timedEngine{inner: engine, delay: delay}

	dataCfg := dataset.DefaultConfig()
	dataCfg.Seed = seed
	deepCfg := deepweb.DefaultConfig()
	deepCfg.Seed = seed
	w := &snapshot.World{Meta: snapshot.Meta{GoVersion: runtime.Version(), Seed: seed, Scale: 1}}
	for _, dom := range domains {
		t := time.Now()
		ds := dataset.Generate(dom, dataCfg)
		m["dataset.generate_s"] += time.Since(t).Seconds()
		t = time.Now()
		pool := deepweb.BuildPool(ds, dom, deepCfg)
		m["deepweb.buildpool_s"] += time.Since(t).Seconds()

		ledger := obs.NewLedger(nil)
		icfg := iq.DefaultConfig()
		val := iq.NewValidator(te, icfg)
		acq := iq.NewAcquirer(
			iq.NewSurface(te, val, icfg),
			iq.NewAttrDeep(pool, icfg),
			iq.NewAttrSurface(val, icfg),
			iq.AllComponents(), icfg)
		acq.SetLedger(ledger)
		acq.SetAccounting(
			func() (time.Duration, int) { return engine.VirtualTime(), engine.QueryCount() },
			func() (time.Duration, int) { return pool.VirtualTime(), pool.QueryCount() },
		)
		rep := timeAcquire(m, te, dom.Key, func() *iq.Report { return acq.AcquireAll(ds) })
		m["webiq.surface_queries"] += float64(rep.SurfaceQueries)
		m["webiq.attr_surface_queries"] += float64(rep.AttrSurfaceQueries)
		m["deepweb.probes"] += float64(pool.QueryCount())

		mt := matcher.New(matcher.DefaultConfig())
		mt.SetLedger(ledger)
		res := timeMatch(m, func() *matcher.Result { return mt.Match(ds) })
		t = time.Now()
		u := unify.Build(ds, res)
		m["unify.build_s"] += time.Since(t).Seconds()

		repJSON, err := json.Marshal(rep)
		if err != nil {
			return nil, nil, 0, fmt.Errorf("marshal report for %s: %w", dom.Key, err)
		}
		w.Datasets = append(w.Datasets, ds)
		w.Domains = append(w.Domains, snapshot.DomainWorld{
			Domain:       dom.Key,
			Unified:      u,
			ReportJSON:   repJSON,
			Decisions:    ledger.Decisions(),
			Degradations: rep.Degradations,
		})
		w.Meta.Domains = append(w.Meta.Domains, dom.Key)
		w.Meta.Decisions += ledger.Len()
	}
	t = time.Now()
	fi, err := engine.ExtractFrozen(v0)
	m["surfaceweb.freeze_s"] = time.Since(t).Seconds()
	if err != nil {
		return nil, nil, 0, fmt.Errorf("freeze index: %w", err)
	}
	m["surfaceweb.queries_charged"] = float64(engine.QueryCount() - q0)
	w.Index = fi
	w.Meta.Docs = fi.NumDocs()
	w.Meta.Terms = fi.Terms().Len()
	w.Meta.Postings = len(fi.Data().PostDoc)
	wall := time.Since(start)

	sum := 0.0
	for _, k := range buildLayers {
		sum += m[k]
	}
	m["bench.unattributed_frac"] = 1 - sum/wall.Seconds()
	return w, m, wall, nil
}

// timeAcquire times one AcquireAll and splits it into engine busy time
// (measured by the wrapper) and WebIQ's own time around it.
func timeAcquire(m map[string]float64, te *timedEngine, domain string, acquire func() *iq.Report) *iq.Report {
	c0 := te.counts()
	a0 := allocBytes()
	t := time.Now()
	rep := acquire()
	d := time.Since(t)
	m["webiq.alloc_mb"] += float64(allocBytes()-a0) / (1 << 20)
	c := te.counts().sub(c0)
	c.into(m)
	m["webiq.acquire_s"] += d.Seconds()
	if domain != "" {
		m["webiq.acquire_s."+domain] += d.Seconds()
	}
	m["webiq.acquire_self_s"] += (d - c.search - c.numHits - c.batch).Seconds()
	return rep
}

func timeMatch(m map[string]float64, match func() *matcher.Result) *matcher.Result {
	a0 := allocBytes()
	t := time.Now()
	res := match()
	m["matcher.match_s"] += time.Since(t).Seconds()
	m["matcher.alloc_mb"] += float64(allocBytes()-a0) / (1 << 20)
	return res
}

// allocBytes is the process's cumulative heap allocation.
func allocBytes() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// exactCounts picks the counts that must repeat exactly between
// iterations of the same seed.
func exactCounts(m map[string]float64, keys ...string) map[string]float64 {
	out := make(map[string]float64, len(keys))
	for _, k := range keys {
		out[k] = m[k]
	}
	return out
}

func sameCounts(a, b map[string]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// unitOf looks up a per-layer metric's unit.
func unitOf(name string) string {
	for _, m := range perLayer {
		if m.name == name {
			return m.unit
		}
	}
	panic("perfbench: unknown per-layer metric " + name)
}
