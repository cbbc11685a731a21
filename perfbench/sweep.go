package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"time"

	"webiq/internal/dataset"
	"webiq/internal/deepweb"
	"webiq/internal/experiments"
	"webiq/internal/kb"
	"webiq/internal/matcher"
	iq "webiq/internal/webiq"
)

// runSweep measures the accuracy half of webiq-bench: Table 1 and
// Figures 6 and 7 with their renderers, on a warm query cache.
func runSweep(r *run) error {
	if r.trace {
		return tracedSweepRun(r)
	}
	return runUnits(r, "sweep")
}

// sweepUnit runs one world's experiments in a fresh process: set-up is
// the environment and the cold pass, which fills the query cache; then
// ops warm passes, each of which must render the cold pass's text
// without a cache miss and with the same number of hits.
func sweepUnit(u *unitOut, seed int64, ops int) error {
	t, c := time.Now(), processCPU()
	env := experiments.NewEnvWithSeed(seed)
	cold := experimentPass(env)
	u.Setup, u.SetupCPU = time.Since(t).Seconds(), (processCPU() - c).Seconds()
	misses, hits := env.Cache.Misses(), env.Cache.Hits()
	hitsPerPass := -1
	for len(u.Ops) < ops {
		runtime.GC()
		var out string
		_ = u.timeOp(func() error { out = experimentPass(env); return nil })
		dh := env.Cache.Hits() - hits
		hits = env.Cache.Hits()
		switch {
		case out != cold:
			u.fail("world %d: warm pass rendered output differs from the cold pass", seed)
		case env.Cache.Misses() != misses:
			u.fail("world %d: warm pass missed the cache: %d misses, want %d", seed, env.Cache.Misses(), misses)
		case hitsPerPass >= 0 && dh != hitsPerPass:
			u.fail("world %d: warm pass made %d cache hits, want %d", seed, dh, hitsPerPass)
		}
		hitsPerPass = dh
	}
	u.Record = map[string]any{"cold_cache_misses": misses, "cache_hits_per_pass": hitsPerPass}
	return nil
}

// experimentPass runs and renders Table 1, Figure 6 and Figure 7.
func experimentPass(env *experiments.Env) string {
	return experiments.RenderTable1(env.Table1()) +
		experiments.RenderFigure6(env.Figure6()) +
		experiments.RenderFigure7(env.Figure7())
}

// tracedSweepRun replays the acquisitions and matches of one experiment
// pass — same domains, component sets and order — through a timed
// wrapper around the query cache, alternating with an untraced replay
// whose Report JSON and F-1 scores must be identical.
func tracedSweepRun(r *run) error {
	t := time.Now()
	env := experiments.NewEnvWithSeed(r.seed)
	corpus := time.Since(t).Seconds()
	te := &timedEngine{inner: env.Cache}

	// The cold pass fills the cache; it is where the Figure-8 queries
	// are charged.
	q0 := env.Engine.QueryCount()
	cold := map[string]float64{}
	_, replayed := replayPass(env, te, te, cold)
	charged := env.Engine.QueryCount() - q0
	r.attempted++
	// The replay stands for the program the untraced sweep measures
	// only if it computes the same figures: every success rate and F-1
	// in the experiments' rows must match it exactly.
	if d := rowsDiffer(replayed, experimentRows(env)); d != "" {
		r.fail("replay differs from the experiments: %s", d)
	}

	var iters []map[string]float64
	var traced, plain []float64
	for start := time.Now(); time.Since(start).Seconds() < r.seconds || len(iters) == 0; {
		runtime.GC()
		m := map[string]float64{}
		h0, m0, q0 := env.Cache.Hits(), env.Cache.Misses(), env.Engine.QueryCount()
		t := time.Now()
		got, _ := replayPass(env, te, te, m)
		traced = append(traced, time.Since(t).Seconds())
		hits, misses := env.Cache.Hits()-h0, env.Cache.Misses()-m0
		m["surfaceweb.cache.hit_ratio"] = float64(hits) / float64(hits+misses)
		r.attempted++
		if env.Engine.QueryCount() != q0 || misses != 0 {
			r.fail("warm traced pass %d charged %d queries, %d cache misses", len(iters)+1, env.Engine.QueryCount()-q0, misses)
		}
		if m["deepweb.probes"] != cold["deepweb.probes"] {
			r.fail("warm traced pass %d made %g probes, cold pass %g", len(iters)+1, m["deepweb.probes"], cold["deepweb.probes"])
		}

		runtime.GC()
		t = time.Now()
		want, _ := replayPass(env, env.Cache, nil, nil)
		plain = append(plain, time.Since(t).Seconds())
		r.attempted++
		if got != want {
			r.fail("traced replay %d output differs from the untraced replay", len(iters)+1)
		}
		iters = append(iters, m)
	}
	for k, v := range medianOf(iters) {
		r.set(k, unitOf(k), v)
	}
	// Counts of the cold pass: the queries and probes the paper's
	// Figure 8 charges. They repeat exactly for a seed.
	r.set("surfaceweb.corpus_s", "s", corpus)
	r.set("surfaceweb.queries_charged", "count", float64(charged))
	r.set("webiq.surface_queries", "count", cold["webiq.surface_queries"])
	r.set("webiq.attr_surface_queries", "count", cold["webiq.attr_surface_queries"])
	r.set("bench.trace_overhead_frac", "ratio", median(traced)/median(plain)-1)
	r.record["ops"] = len(iters)
	return nil
}

// sweepCond is one experimental condition: a component set and the
// matcher thresholds scored on its dataset.
type sweepCond struct {
	set   string
	comps iq.Components
	taus  []float64
}

var (
	compsSurface     = iq.Components{Surface: true}
	compsSurfaceDeep = iq.Components{Surface: true, AttrDeep: true}
	compsAll         = iq.AllComponents()
)

// replayPass performs the acquisitions and matches of Table 1, Figure 6
// and Figure 7 in the experiments' order against se. With m non-nil it
// times each layer into m; te, when non-nil, is the wrapper se goes
// through. It returns every Report's JSON and F-1 score as text, and
// the figures the experiments would report from them (Table 1 without
// its ExpInst column, which no acquisition or match computes).
func replayPass(env *experiments.Env, se iq.SearchEngine, te *timedEngine, m map[string]float64) (string, passRows) {
	var out strings.Builder
	var rows passRows
	if m == nil {
		m = map[string]float64{}
	}
	for _, dom := range env.Domains {
		t := time.Now()
		base := dataset.Generate(dom, env.DataCfg)
		m["dataset.generate_s"] += time.Since(t).Seconds()
		st := base.ComputeStats()
		fmt.Fprintf(&out, "%+v\n", st)
		m["webiq.cond_s.none"] += time.Since(t).Seconds()
		row := experiments.Table1Row{Domain: dom.DisplayName,
			AvgAttrs: st.AvgAttrs, PctIntNoInst: st.PctInterfacesNoInst, PctAttrNoInst: st.PctAttrsNoInst}
		row.Surface, _ = replayCond(&out, env, se, te, m, dom, sweepCond{"surface", compsSurface, nil})
		row.SurfaceDeep, _ = replayCond(&out, env, se, te, m, dom, sweepCond{"surface-deep", compsSurfaceDeep, nil})
		rows.t1 = append(rows.t1, row)
	}
	for _, dom := range env.Domains {
		_, base := replayCond(&out, env, se, te, m, dom, sweepCond{"none", iq.Components{}, []float64{0}})
		_, all := replayCond(&out, env, se, te, m, dom, sweepCond{"all", compsAll, []float64{0, env.Thresholded}})
		rows.f6 = append(rows.f6, experiments.Fig6Row{Domain: dom.DisplayName,
			Baseline: base[0], WithWebIQ: all[0], WithThreshold: all[1]})
	}
	for _, dom := range env.Domains {
		var f [4]float64
		for i, c := range []sweepCond{
			{"none", iq.Components{}, []float64{0}},
			{"surface", compsSurface, []float64{0}},
			{"surface-deep", compsSurfaceDeep, []float64{0}},
			{"all", compsAll, []float64{0}},
		} {
			_, f1 := replayCond(&out, env, se, te, m, dom, c)
			f[i] = f1[0]
		}
		rows.f7 = append(rows.f7, experiments.Fig7Row{Domain: dom.DisplayName,
			Baseline: f[0], PlusSurface: f[1], PlusAttrDeep: f[2], PlusAll: f[3]})
	}
	return out.String(), rows
}

// passRows are the rows of Table 1, Figure 6 and Figure 7.
type passRows struct {
	t1 []experiments.Table1Row
	f6 []experiments.Fig6Row
	f7 []experiments.Fig7Row
}

// experimentRows runs Table 1, Figure 6 and Figure 7 the way the
// untraced sweep does, with Table 1's ExpInst column cleared.
func experimentRows(env *experiments.Env) passRows {
	rows := passRows{t1: env.Table1(), f6: env.Figure6(), f7: env.Figure7()}
	for i := range rows.t1 {
		rows.t1[i].ExpInst = 0
	}
	return rows
}

// rowsDiffer describes the first row in which a replay's figures differ
// from the experiments', or returns "" when every value is identical.
func rowsDiffer(got, want passRows) string {
	if len(got.t1) != len(want.t1) || len(got.f6) != len(want.f6) || len(got.f7) != len(want.f7) {
		return fmt.Sprintf("row counts %d/%d/%d, want %d/%d/%d",
			len(got.t1), len(got.f6), len(got.f7), len(want.t1), len(want.f6), len(want.f7))
	}
	for i := range want.t1 {
		if got.t1[i] != want.t1[i] {
			return fmt.Sprintf("Table 1 %+v, want %+v", got.t1[i], want.t1[i])
		}
	}
	for i := range want.f6 {
		if got.f6[i] != want.f6[i] {
			return fmt.Sprintf("Figure 6 %+v, want %+v", got.f6[i], want.f6[i])
		}
	}
	for i := range want.f7 {
		if got.f7[i] != want.f7[i] {
			return fmt.Sprintf("Figure 7 %+v, want %+v", got.f7[i], want.f7[i])
		}
	}
	return ""
}

// replayCond runs one condition on a fresh dataset of dom: the
// acquisition, when c has components, then a match per τ. It returns
// the acquisition's success rate and each match's F-1 in percent, the
// values the experiments put in their rows.
func replayCond(out *strings.Builder, env *experiments.Env, se iq.SearchEngine, te *timedEngine, m map[string]float64, dom *kb.Domain, c sweepCond) (success float64, f1s []float64) {
	start := time.Now()
	t := start
	ds := dataset.Generate(dom, env.DataCfg)
	m["dataset.generate_s"] += time.Since(t).Seconds()
	if c.comps != (iq.Components{}) {
		t = time.Now()
		pool := deepweb.BuildPool(ds, dom, env.DeepCfg)
		m["deepweb.buildpool_s"] += time.Since(t).Seconds()
		v := iq.NewValidator(se, env.WebIQCfg)
		acq := iq.NewAcquirer(
			iq.NewSurface(se, v, env.WebIQCfg),
			iq.NewAttrDeep(pool, env.WebIQCfg),
			iq.NewAttrSurface(v, env.WebIQCfg),
			c.comps, env.WebIQCfg)
		acq.SetAccounting(
			func() (time.Duration, int) { return env.Engine.VirtualTime(), env.Engine.QueryCount() },
			func() (time.Duration, int) { return pool.VirtualTime(), pool.QueryCount() },
		)
		var rep *iq.Report
		if te != nil {
			rep = timeAcquire(m, te, dom.Key, func() *iq.Report { return acq.AcquireAll(ds) })
		} else {
			rep = acq.AcquireAll(ds)
		}
		m["webiq.surface_queries"] += float64(rep.SurfaceQueries)
		m["webiq.attr_surface_queries"] += float64(rep.AttrSurfaceQueries)
		m["deepweb.probes"] += float64(pool.QueryCount())
		b, _ := json.Marshal(rep) // a Report always marshals
		success = rep.SuccessRate()
		fmt.Fprintf(out, "%s %s %.6f %s\n", dom.Key, c.set, success, b)
	}
	for _, tau := range c.taus {
		cfg := env.MatchCfg
		cfg.Threshold = tau
		var res *matcher.Result
		if te != nil {
			res = timeMatch(m, func() *matcher.Result { return matcher.New(cfg).Match(ds) })
		} else {
			res = matcher.New(cfg).Match(ds)
		}
		f1 := 100 * matcher.Evaluate(res.Pairs, ds.GoldPairs()).F1
		f1s = append(f1s, f1)
		fmt.Fprintf(out, "%s %s tau=%g F1=%.6f\n", dom.Key, c.set, tau, f1)
	}
	m["webiq.cond_s."+c.set] += time.Since(start).Seconds()
	return success, f1s
}
