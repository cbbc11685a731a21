package main

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a -trace 0 run reports on every workload.
// Their meaning per workload is in README.md: op_cpu_ms is the CPU time
// of one world build on build, of one warm experiment pass on sweep
// and, on serve-*, the geometric mean over request kinds of the
// server's CPU time per request of that kind.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_cpu_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// serveKinds are the request kinds of the serve workloads, in the
// order the per-kind metrics are listed.
var serveKinds = []string{"unified_search", "source_search", "unified", "sources", "explain"}

// directKinds are the kinds whose handler sits on one public layer
// call (translate.Query, Source.Probe, htmlform.Render), so the
// middleware share of a request is ServeHTTP minus that call.
var directKinds = []string{"unified_search", "source_search", "unified"}

// contentionPkgs are the buckets contended wait is attributed to:
// three webiq packages, any other webiq package, and the standard
// library (net/http and the like, not the runtime itself).
var contentionPkgs = []string{"deepweb", "obs", "server", "stdlib", "other"}

var domainKeys = []string{"airfare", "auto", "book", "job", "realestate"}

// condSets are the acquisition component sets the sweep's experiments
// run: none (baseline matching only), Surface, Surface+Attr-Deep, all.
var condSets = []string{"none", "surface", "surface-deep", "all"}

// perLayer are the metrics a -trace 1 run reports on every workload.
var perLayer = func() []metricDef {
	d := []metricDef{
		{"surfaceweb.corpus_s", "s"},
		{"surfaceweb.search.calls", "count"},
		{"surfaceweb.search.busy_s", "s"},
		{"surfaceweb.numhits.calls", "count"},
		{"surfaceweb.numhits.busy_s", "s"},
		{"surfaceweb.batch.calls", "count"},
		{"surfaceweb.batch.queries", "count"},
		{"surfaceweb.batch.busy_s", "s"},
		{"surfaceweb.cache.hit_ratio", "ratio"},
		{"surfaceweb.freeze_s", "s"},
		{"surfaceweb.queries_charged", "count"},
		{"dataset.generate_s", "s"},
		{"deepweb.buildpool_s", "s"},
		{"webiq.acquire_s", "s"},
	}
	for _, k := range domainKeys {
		d = append(d, metricDef{"webiq.acquire_s." + k, "s"})
	}
	d = append(d, metricDef{"webiq.acquire_self_s", "s"})
	for _, c := range condSets {
		d = append(d, metricDef{"webiq.cond_s." + c, "s"})
	}
	d = append(d,
		metricDef{"webiq.alloc_mb", "MB"},
		metricDef{"webiq.surface_queries", "count"},
		metricDef{"webiq.attr_surface_queries", "count"},
		metricDef{"deepweb.probes", "count"},
		metricDef{"matcher.match_s", "s"},
		metricDef{"matcher.alloc_mb", "MB"},
		metricDef{"unify.build_s", "s"},
		metricDef{"snapshot.load_s", "s"},
		metricDef{"server.boot_s", "s"},
	)
	for _, k := range serveKinds {
		d = append(d, metricDef{"server." + k + "_us", "us"}, metricDef{"server." + k + "_alloc_kb", "KB"})
	}
	d = append(d,
		metricDef{"translate.query_us", "us"},
		metricDef{"translate.fanout", "count"},
		metricDef{"deepweb.probe_us", "us"},
		metricDef{"htmlform.render_us", "us"},
	)
	for _, k := range directKinds {
		d = append(d, metricDef{"server.middleware_us." + k, "us"})
	}
	d = append(d,
		metricDef{"server.stats.unified_p99_ms", "ms"},
		metricDef{"server.stats.source_p99_ms", "ms"},
		metricDef{"runtime.gc_per_kreq", "count"},
		metricDef{"runtime.gc_pause_p99_ms", "ms"},
		metricDef{"runtime.heap_inuse_mb", "MB"},
	)
	for _, p := range contentionPkgs {
		d = append(d, metricDef{"runtime.mutex_wait_ms_per_kreq." + p, "ms/kreq"})
	}
	for _, p := range contentionPkgs {
		d = append(d, metricDef{"runtime.block_wait_ms_per_kreq." + p, "ms/kreq"})
	}
	d = append(d,
		metricDef{"bench.open_p50_ms", "ms"},
		metricDef{"bench.open_tail_ms", "ms"},
		metricDef{"bench.late_p99_ms", "ms"},
		metricDef{"bench.trace_overhead_frac", "ratio"},
		metricDef{"bench.unattributed_frac", "ratio"},
	)
	return d
}()
