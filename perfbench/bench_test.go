package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"webiq/internal/snapshot"
)

func TestTailReportsHighestPercentileWithTenBeyond(t *testing.T) {
	xs := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i) // unsorted on purpose
		}
		return out
	}
	for _, c := range []struct {
		n     int
		max   float64
		wantQ float64
		wantV float64
	}{
		{10000, 0.999, 0.999, 9990}, // exactly 10 samples above p99.9
		{10000, 0.99, 0.99, 9900},
		{1000, 0.99, 0.99, 990},
		{999, 0.99, 0.95, 950}, // p99 would leave 9 beyond
		{200, 0.99, 0.95, 190},
		{100, 0.99, 0.9, 90},
		{40, 0.99, 0.75, 30},
		{12, 0.99, 0.5, 6}, // too few for any: the median
	} {
		q, v := tail(xs(c.n), c.max)
		if q != c.wantQ || v != c.wantV {
			t.Errorf("tail(n=%d, max=%g) = p%g %g, want p%g %g", c.n, c.max, q*100, v, c.wantQ*100, c.wantV)
		}
		if n := c.n - int(math.Ceil(q*float64(c.n))); q > 0.5 && n < minBeyond {
			t.Errorf("n=%d: p%g has only %d samples beyond it", c.n, q*100, n)
		}
	}
}

// TestOpsPerUnitIsFixedAndOdd checks that a unit's op count comes from
// --seconds alone and is odd, so its median is always one of its ops.
func TestOpsPerUnitIsFixedAndOdd(t *testing.T) {
	for _, c := range []struct {
		workload string
		seconds  float64
		want     int
	}{
		{"build", 20, 3}, {"sweep", 20, 3}, {"build", 60, 9}, {"sweep", 60, 7}, {"build", 1, 1}, {"sweep", 10, 1},
	} {
		if got := opsPerUnit(c.workload, c.seconds); got != c.want {
			t.Errorf("opsPerUnit(%s, %g) = %d, want %d", c.workload, c.seconds, got, c.want)
		}
	}
}

// TestChildCPUReadsProcStat reads this process's CPU time the way the
// serve workloads read the server's, and checks it against getrusage.
func TestChildCPUReadsProcStat(t *testing.T) {
	for x := 0; processCPU() < 50*time.Millisecond; x++ {
		calibSink += uint64(x * x)
	}
	before := processCPU()
	got, err := childCPU(os.Getpid())
	after := processCPU()
	if err != nil {
		t.Fatal(err)
	}
	// /proc/<pid>/stat counts utime and stime in steps of 1/userHZ s,
	// each rounded down.
	if got < before-2*time.Second/userHZ || got > after {
		t.Errorf("childCPU = %v, want within two steps of getrusage's %v-%v", got, before, after)
	}
}

// TestLatencyWeighsKindsEqually checks that a phase's p50 and tail do
// not depend on the share each request kind has.
func TestLatencyWeighsKindsEqually(t *testing.T) {
	ph := func(na, nb int) *phase {
		p := &phase{}
		for i := 0; i < na; i++ {
			p.lat, p.kind = append(p.lat, 1), append(p.kind, "a")
		}
		for i := 0; i < nb; i++ {
			p.lat, p.kind = append(p.lat, 4), append(p.kind, "b")
		}
		return p
	}
	for _, shares := range [][2]int{{900, 100}, {500, 500}, {100, 900}} {
		p50, tl, _, per := ph(shares[0], shares[1]).latency(0.95)
		if math.Abs(p50-2) > 1e-12 || math.Abs(tl-2) > 1e-12 || per["b"] != [2]float64{4, 4} {
			t.Errorf("shares %v: p50 %g, tail %g, per kind %v; want 2, 2", shares, p50, tl, per)
		}
	}
}

// TestOneByteBodyChangeFails serves a fixed body over loopback and
// checks that the load generator counts a response differing in one
// byte as failed, in both loops.
func TestOneByteBodyChangeFails(t *testing.T) {
	body := []byte(strings.Repeat("unified interface ", 100))
	mux := http.NewServeMux()
	mux.HandleFunc("/ok", func(w http.ResponseWriter, _ *http.Request) { w.Write(body) })
	mux.HandleFunc("/flip", func(w http.ResponseWriter, _ *http.Request) {
		b := append([]byte(nil), body...)
		b[len(b)/2] ^= 1
		w.Write(b)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	reqs := []request{{path: "/ok"}, {path: "/flip"}}
	want := map[string][]byte{"/ok": body, "/flip": body}
	lg := newLoadGen(srv.URL, reqs, want)
	defer lg.close()
	open := lg.openLoop(200, 200*time.Millisecond)
	if open.sent != 40 || open.failed != 20 || open.ok != 20 {
		t.Errorf("open loop: sent %d, ok %d, failed %d; want 40, 20, 20", open.sent, open.ok, open.failed)
	}
	for i, l := range open.lat {
		if (i%2 == 1) != (l == failedMs) {
			t.Errorf("request %d (%s): latency %g ms", i, reqs[i%2].path, l)
		}
	}
	closed := lg.closedLoop(reqs, 2, 40)
	if closed.sent != 40 || closed.failed != 20 || closed.ok != 20 || len(closed.lat) != 40 {
		t.Errorf("closed loop: sent %d, ok %d, failed %d, %d latencies; want 40, 20, 20, 40", closed.sent, closed.ok, closed.failed, len(closed.lat))
	}
}

// TestPlantedEngineDelayStaysInEngine plants a delay in the benchmark's
// own engine wrapper. It must show up in the engine's busy time and in
// acquisition time, which contains the engine calls, and nowhere else.
func TestPlantedEngineDelayStaysInEngine(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two worlds")
	}
	const delay = 200 * time.Microsecond
	ref, err := snapshot.BuildWorld(snapshot.BuildConfig{Seed: 1, Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	refDigest, err := worldDigest(ref)
	if err != nil {
		t.Fatal(err)
	}
	_, base, _, err := tracedBuild(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	w, slow, _, err := tracedBuild(1, delay)
	if err != nil {
		t.Fatal(err)
	}
	if d, err := worldDigest(w); err != nil || d != refDigest {
		t.Fatalf("traced build with a planted delay: digest %s (%v), want BuildWorld's %s", d, err, refDigest)
	}
	calls := slow["surfaceweb.search.calls"] + slow["surfaceweb.numhits.calls"] + slow["surfaceweb.batch.calls"]
	planted := calls * delay.Seconds()
	busy := func(m map[string]float64) float64 {
		return m["surfaceweb.search.busy_s"] + m["surfaceweb.numhits.busy_s"] + m["surfaceweb.batch.busy_s"]
	}
	grew := func(name string, got, want float64) {
		if got < 0.9*want {
			t.Errorf("%s grew %.3fs, want at least the %.3fs planted", name, got, 0.9*want)
		}
	}
	grew("engine busy time", busy(slow)-busy(base), planted)
	grew("webiq.acquire_s", slow["webiq.acquire_s"]-base["webiq.acquire_s"], planted)
	// Every other layer may move by noise, not by the planted time.
	for _, k := range append([]string{"webiq.acquire_self_s"}, buildLayers...) {
		if k == "webiq.acquire_s" {
			continue
		}
		if d := slow[k] - base[k]; d > planted/4 {
			t.Errorf("%s grew %.3fs with %.3fs planted in the engine", k, d, planted)
		}
	}
}

// TestBenchmarkJSONListsEveryMetric keeps BENCHMARK.json and the
// metrics this program reports in step.
func TestBenchmarkJSONListsEveryMetric(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	list := func(defs []metricDef) string {
		var parts []string
		for _, d := range defs {
			parts = append(parts, fmt.Sprintf(`{"name": %q, "unit": %q}`, d.name, d.unit))
		}
		return strings.Join(parts, "\n")
	}
	specList := func(ms []struct{ Name, Unit string }) string {
		var parts []string
		for _, m := range ms {
			parts = append(parts, fmt.Sprintf(`{"name": %q, "unit": %q}`, m.Name, m.Unit))
		}
		return strings.Join(parts, "\n")
	}
	if got, want := specList(spec.EndToEnd), list(endToEnd); got != want {
		t.Errorf("BENCHMARK.json end_to_end:\n%s\nwant:\n%s", got, want)
	}
	if got, want := specList(spec.PerLayer), list(perLayer); got != want {
		t.Errorf("BENCHMARK.json per_layer:\n%s\nwant:\n%s", got, want)
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %q, which perfbench does not run", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, perfbench runs %d", len(spec.Workloads), len(workloads))
	}
}

func TestContentionByPackage(t *testing.T) {
	prof := "--- mutex:\ncycles/second=1000000\nsampling period=1\n" +
		"3000 2 @ 0x1 0x2\n" +
		"#\t0x1\tsync.(*Mutex).Unlock+0x5c\t/go/src/sync/mutex.go:223\n" +
		"#\t0x2\twebiq/internal/deepweb.(*Pool).charge+0x9a\t/src/deepweb/source.go:150\n\n" +
		"5000 1 @ 0x3 0x4\n" +
		"#\t0x3\tinternal/sync.(*Mutex).Lock+0x5\t/go/src/internal/sync/mutex.go:1\n" +
		"#\t0x4\twebiq/internal/obs.(*Tracer).emit+0x2e\t/src/obs/trace.go:1\n" +
		"#\t0x5\twebiq/internal/server.(*Server).ServeHTTP+0x8e\t/src/server/server.go:1\n\n" +
		"7000 1 @ 0x6\n" +
		"#\t0x6\tnet/http.(*persistConn).readLoop+0x1\t/go/src/net/http/transport.go:1\n\n" +
		"9000 1 @ 0x7 0x8\n" +
		"#\t0x7\tsync.(*WaitGroup).Wait+0x47\t/go/src/sync/waitgroup.go:1\n" +
		"#\t0x8\tmain.replayConcurrent+0x2d1\t/perfbench/contention.go:1\n\n" +
		"11000 1 @ 0x9\n" +
		"#\t0x9\truntime.chanrecv1+0x11\t/go/src/runtime/chan.go:1\n"
	got := contentionByPackage(prof)
	want := map[string]float64{"deepweb": 3, "obs": 5, "stdlib": 7}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-9 {
			t.Errorf("%s: %g ms, want %g", k, got[k], v)
		}
	}
}
