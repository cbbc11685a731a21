package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"time"

	"webiq/internal/deepweb"
	"webiq/internal/htmlform"
	"webiq/internal/kb"
	"webiq/internal/server"
	"webiq/internal/snapshot"
	"webiq/internal/translate"
	"webiq/internal/unify"
)

// bootRepeats is how many times the traced run loads the snapshot and
// boots a server from it; the per-layer boot times are medians.
const bootRepeats = 3

// tracedServeRun measures the serving layers: the child's own /stats
// around an open-loop phase, then an in-process replay of the same
// request sequence through Server.ServeHTTP and, request by request,
// through the public layer call beneath each handler, then the replay
// again from nproc callers with the mutex and block profiles on.
func tracedServeRun(r *run, mx mix, snap string) error {
	var loads, boots []float64
	var world *snapshot.World
	var srv *server.Server
	for i := 0; i < bootRepeats; i++ {
		if world != nil {
			world.Close()
		}
		t := time.Now()
		w, err := snapshot.Load(snap)
		loads = append(loads, time.Since(t).Seconds())
		if err != nil {
			return err
		}
		t = time.Now()
		srv, err = server.NewFromSnapshot(w)
		boots = append(boots, time.Since(t).Seconds())
		if err != nil {
			return err
		}
		world = w
	}
	// The last world stays mapped until exit: request fields alias it.
	r.record["world_seed"] = world.Meta.Seed
	r.record["snapshot_fingerprint"] = fmt.Sprintf("%016x", world.Fingerprint)
	reqs := mx.gen(world, rand.New(rand.NewSource(r.seed)))
	want, err := expectedBodies(srv, reqs)
	if err != nil {
		return err
	}
	r.set("snapshot.load_s", "s", median(loads))
	r.set("server.boot_s", "s", median(boots))

	// The pools NewFromSnapshot rebuilds, built again here for the
	// direct layer calls.
	deepCfg := deepweb.DefaultConfig()
	deepCfg.Seed = world.Meta.Seed
	pools := map[string]*deepweb.Pool{}
	translators := map[string]*translate.Translator{}
	t := time.Now()
	for _, dom := range kb.Domains() {
		pools[dom.Key] = deepweb.BuildPool(world.Dataset(dom.Key), dom, deepCfg)
	}
	r.set("deepweb.buildpool_s", "s", time.Since(t).Seconds())
	for _, dw := range world.Domains {
		translators[dw.Domain] = translate.New(dw.Unified, world.Dataset(dw.Domain), pools[dw.Domain])
	}

	phaseDur := time.Duration(r.seconds / 3 * float64(time.Second))
	if err := statsPhase(r, mx, snap, reqs, want, phaseDur); err != nil {
		return err
	}
	replaySequential(r, world, srv, reqs, want, pools, translators, phaseDur)
	return replayConcurrent(r, srv, reqs, want, phaseDur)
}

// statsPhase runs the open loop against a fresh child and reads the
// server's own view of it from /stats: route latency and the runtime.
func statsPhase(r *run, mx mix, snap string, reqs []request, want map[string][]byte, dur time.Duration) error {
	child, err := startServe(r.serveBin, snap)
	if err != nil {
		return err
	}
	defer child.stop()
	before, err := fetchStats(child.base)
	if err != nil {
		return err
	}
	t := time.Now()
	lg := newLoadGen(child.base, reqs, want)
	defer lg.close()
	open := lg.openLoop(mx.rate, dur)
	r.attempted += open.sent
	r.failed += open.failed
	r.notes = append(r.notes, open.notes...)
	// /stats refreshes its runtime sample at most once a second.
	if d := time.Second + 50*time.Millisecond - time.Since(t); d > 0 {
		time.Sleep(d)
	}
	after, err := fetchStats(child.base)
	if err != nil {
		return err
	}
	_, late := tail(open.late, 0.99)
	p50, tl, q, perKind := open.latency(0.99)
	r.record["open_tail_quantile"] = q
	r.record["open_per_kind_p50_tail_ms"] = perKind
	r.set("bench.open_p50_ms", "ms", p50)
	r.set("bench.open_tail_ms", "ms", tl)
	r.set("bench.late_p99_ms", "ms", late)
	r.set("server.stats.unified_p99_ms", "ms", after.Routes["unified"].P99*1000)
	r.set("server.stats.source_p99_ms", "ms", after.Routes["source"].P99*1000)
	r.set("runtime.gc_per_kreq", "count", float64(after.Runtime.NumGC-before.Runtime.NumGC)/(float64(open.sent)/1000))
	r.set("runtime.gc_pause_p99_ms", "ms", float64(after.Runtime.GCPauseP99NS)/1e6)
	r.set("runtime.heap_inuse_mb", "MB", float64(after.Runtime.HeapInuseBytes)/(1<<20))
	r.record["phases"] = map[string]any{"open": open.summary()}
	return nil
}

// bodyWriter is a reusable in-process ResponseWriter.
type bodyWriter struct {
	h    http.Header
	code int
	body bytes.Buffer
}

func (b *bodyWriter) Header() http.Header { return b.h }
func (b *bodyWriter) WriteHeader(code int) {
	if b.code == 0 {
		b.code = code
	}
}
func (b *bodyWriter) Write(p []byte) (int, error) {
	if b.code == 0 {
		b.code = http.StatusOK
	}
	return b.body.Write(p)
}
func (b *bodyWriter) reset() {
	clear(b.h)
	b.code = 0
	b.body.Reset()
}

// serveInProcess answers rq in process and checks the answer.
func serveInProcess(srv *server.Server, bw *bodyWriter, hr *http.Request, want []byte) error {
	bw.reset()
	srv.ServeHTTP(bw, hr)
	if bw.code != http.StatusOK || !bytes.Equal(bw.body.Bytes(), want) {
		return fmt.Errorf("in-process replay of %s: status %d, body %d bytes (want %d)", hr.URL, bw.code, bw.body.Len(), len(want))
	}
	return nil
}

// replaySequential times every request through ServeHTTP, one at a
// time, next to the layer call beneath its handler: translate.Query
// (and Source.Probe per fan-out member) for a unified search,
// Source.Probe for a source search, htmlform.Render for a unified view.
// The two alternate which goes first, so neither always finds the
// other's data in cache. A second pass replays the sequence with
// neither, for the tracing overhead; a third measures allocation per
// kind over each kind's batch.
func replaySequential(r *run, world *snapshot.World, srv *server.Server, reqs []request, want map[string][]byte,
	pools map[string]*deepweb.Pool, translators map[string]*translate.Translator, dur time.Duration) {
	byKind := map[string][]int{}
	for i, rq := range reqs {
		byKind[rq.kind] = append(byKind[rq.kind], i)
	}
	served := map[string][]float64{}
	direct := map[string][]float64{}
	allocs := map[string]uint64{}
	var queryUs, probeUs, renderUs []float64
	var servedSum, plainWall time.Duration
	fanout, queries := 0, 0
	bw := &bodyWriter{h: http.Header{}}

	serve := func(rq *request, hr *http.Request) {
		r.attempted++
		if err := serveInProcess(srv, bw, hr, want[rq.path]); err != nil {
			r.fail("%v", err)
		}
	}
	directCall := func(rq *request) {
		switch rq.kind {
		case "unified_search":
			t := time.Now()
			res, err := translators[rq.domain].Query(rq.attr, rq.value)
			d := us(time.Since(t))
			queryUs = append(queryUs, d)
			direct[rq.kind] = append(direct[rq.kind], d)
			if err != nil {
				r.fail("translate %s=%q: %v", rq.attr, rq.value, err)
				return
			}
			fanout += len(res)
			queries++
			for _, sr := range res {
				src := pools[rq.domain].Source(sr.InterfaceID)
				t := time.Now()
				src.Probe(sr.AttrID, rq.value)
				probeUs = append(probeUs, us(time.Since(t)))
			}
		case "source_search":
			src := pools[rq.domain].Source(rq.ifc)
			t := time.Now()
			src.Probe(rq.attrID, rq.value)
			d := us(time.Since(t))
			probeUs = append(probeUs, d)
			direct[rq.kind] = append(direct[rq.kind], d)
		case "unified":
			u := unifiedOf(world, rq.domain)
			t := time.Now()
			htmlform.Render(u.AsInterface("unified-" + rq.domain))
			d := us(time.Since(t))
			renderUs = append(renderUs, d)
			direct[rq.kind] = append(direct[rq.kind], d)
		}
	}

	deadline := time.Now().Add(dur)
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		for i := range reqs {
			rq := &reqs[i]
			hr := httptest.NewRequest(http.MethodGet, rq.path, nil)
			if i%2 == 1 {
				directCall(rq)
			}
			t := time.Now()
			serve(rq, hr)
			d := time.Since(t)
			servedSum += d
			served[rq.kind] = append(served[rq.kind], us(d))
			if i%2 == 0 {
				directCall(rq)
			}
		}

		// The same sequence without clocks or layer calls: the
		// untraced baseline of the tracing overhead.
		hrs := make([]*http.Request, len(reqs))
		for i := range reqs {
			hrs[i] = httptest.NewRequest(http.MethodGet, reqs[i].path, nil)
		}
		t := time.Now()
		for i := range reqs {
			serve(&reqs[i], hrs[i])
		}
		plainWall += time.Since(t)

		for _, k := range serveKinds {
			hrs := make([]*http.Request, len(byKind[k]))
			for j, i := range byKind[k] {
				hrs[j] = httptest.NewRequest(http.MethodGet, reqs[i].path, nil)
			}
			a0 := allocBytes()
			for j, i := range byKind[k] {
				serve(&reqs[i], hrs[j])
			}
			allocs[k] += allocBytes() - a0
		}
	}

	for _, k := range serveKinds {
		if len(served[k]) == 0 {
			continue
		}
		r.set("server."+k+"_us", "us", median(served[k]))
		r.set("server."+k+"_alloc_kb", "KB", float64(allocs[k])/float64(len(served[k]))/1024)
	}
	for _, k := range directKinds {
		if len(direct[k]) > 0 {
			r.set("server.middleware_us."+k, "us", median(served[k])-median(direct[k]))
		}
	}
	if queries > 0 {
		r.set("translate.query_us", "us", median(queryUs))
		r.set("translate.fanout", "count", float64(fanout)/float64(queries))
	}
	if len(probeUs) > 0 {
		r.set("deepweb.probe_us", "us", median(probeUs))
	}
	if len(renderUs) > 0 {
		r.set("htmlform.render_us", "us", median(renderUs))
	}
	// The same ServeHTTP calls, with and without a clock around each.
	r.set("bench.trace_overhead_frac", "ratio", servedSum.Seconds()/plainWall.Seconds()-1)
}

func unifiedOf(w *snapshot.World, domain string) *unify.UnifiedInterface {
	for _, dw := range w.Domains {
		if dw.Domain == domain {
			return dw.Unified
		}
	}
	return nil
}
