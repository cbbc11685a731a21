package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"webiq/internal/obs"
	"webiq/internal/server"
	"webiq/internal/snapshot"
)

// mix is a serve workload's traffic: its request pool, the fixed rate
// of the traced run's open loop, and the percentile of the closed-loop
// tail latency the result record holds. The tail is p95: on a shared
// 2-vCPU host the closed-loop p99 is set by a few host stalls of
// several ms per server, and across runs it spread about 1.6 times as
// wide as p95 (0.24 against 0.15).
type mix struct {
	rate  float64 // requests per second, about a quarter of capacity
	tailQ float64
	// capacity is the closed loop's completions per second on the
	// reference host (calib.go). It only turns --seconds into a number
	// of requests per server, which never depends on how fast the
	// server runs: the server's peak RSS grows with the requests it has
	// served, so a time-boxed load would make a faster server look
	// bigger.
	capacity float64
	gen      func(w *snapshot.World, rng *rand.Rand) []request
}

var (
	// queryMix is the end-user query path: translate fan-out, deep-web
	// matching, form rendering and the HTTP middleware.
	queryMix = mix{rate: 1000, tailQ: 0.95, capacity: 6000, gen: genQueryMix}
	// explainMix sends only provenance explains: large JSON bodies that
	// stress allocation and GC through the same middleware.
	explainMix = mix{rate: 50, tailQ: 0.95, capacity: 200, gen: genExplainMix}
)

// serveWorldSeed is the world every serve run boots: the one
// webiq-serve and webiq-snapshot build by default. The workload seed
// draws the request sequence. A serve request's cost depends on its
// world (explain bodies and unified interfaces differ in size from one
// world to the next, by 20-30% in the figures of a serve run), so
// changing the world with the seed would hide any change smaller
// than that.
const serveWorldSeed = 1

const (
	queryPool   = 1500 // requests drawn per serve-query run, sent in a cycle
	explainPool = 200  // the same for serve-explain, whose requests are 20x slower
	servers     = 5    // servers booted and loaded one after another per run
	absentShare = 0.2  // unified-search values drawn from outside the instances
)

// request is one HTTP request of a workload, with what the traced
// replay needs to call the layer beneath its handler directly.
type request struct {
	kind, path string
	domain     string
	attr       string // unified attribute label (unified_search)
	ifc        string // interface ID (source_search)
	attrID     string // source attribute ID (source_search)
	value      string
}

// queryBlock is one block of the serve-query sequence: one request of
// each kind. The repo holds no record of real traffic to take shares
// from, and webiq-loadgen's mix (60% source searches, 30% unified
// views, 10% explains) has no unified searches, so it would leave out
// translate fan-out; equal shares are an assumption, the one that
// weighs no kind above another. A seed changes which requests are
// sent and in what order, never the shares.
var queryBlock = []string{"sources", "source_search", "unified", "unified_search"}

// domainCycler hands out domains so that each kind of request visits
// every domain equally often, in a seeded order.
type domainCycler struct {
	rng  *rand.Rand
	n    int
	next map[string][]int
}

func (c *domainCycler) pick(kind string) int {
	if len(c.next[kind]) == 0 {
		c.next[kind] = c.rng.Perm(c.n)
	}
	d := c.next[kind][0]
	c.next[kind] = c.next[kind][1:]
	return d
}

// genQueryMix draws the serve-query pool across the domains: unified
// searches on a unified attribute with a value from its instances (20%
// absent), source searches with a value from the attribute's own
// instances, unified views and source listings, in queryBlock shares.
func genQueryMix(w *snapshot.World, rng *rand.Rand) []request {
	reqs := make([]request, 0, queryPool)
	doms := &domainCycler{rng: rng, n: len(w.Domains), next: map[string][]int{}}
	for len(reqs) < queryPool {
		block := append([]string(nil), queryBlock...)
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, kind := range block {
			dw := w.Domains[doms.pick(kind)]
			reqs = append(reqs, drawRequest(w, dw, kind, rng))
		}
	}
	return reqs[:queryPool]
}

func drawRequest(w *snapshot.World, dw snapshot.DomainWorld, kind string, rng *rand.Rand) request {
	d := dw.Domain
	switch kind {
	case "unified_search":
		ua := dw.Unified.Attributes[rng.Intn(len(dw.Unified.Attributes))]
		v := "absent value " + strconv.Itoa(rng.Intn(1000))
		if len(ua.Instances) > 0 && rng.Float64() >= absentShare {
			v = ua.Instances[rng.Intn(len(ua.Instances))]
		}
		q := url.Values{"attr": {ua.Label}, "value": {v}}
		return request{kind: kind, domain: d, attr: ua.Label, value: v,
			path: "/unified/" + d + "/search?" + q.Encode()}
	case "source_search":
		// Draw until an attribute with instances comes up; after
		// acquisition most attributes have some.
		for {
			ifcs := w.Dataset(d).Interfaces
			ifc := ifcs[rng.Intn(len(ifcs))]
			i := rng.Intn(len(ifc.Attributes))
			a := ifc.Attributes[i]
			inst := a.AllInstances()
			if len(inst) == 0 {
				continue
			}
			v := inst[rng.Intn(len(inst))]
			q := url.Values{"f" + strconv.Itoa(i): {v}}
			return request{kind: kind, domain: d, ifc: ifc.ID, attrID: a.ID, value: v,
				path: "/source/" + ifc.ID + "/search?" + q.Encode()}
		}
	case "unified":
		return request{kind: kind, domain: d, path: "/unified/" + d}
	}
	return request{kind: "sources", path: "/sources"}
}

// genExplainMix sends explains over the domains in seeded order, each
// domain equally often.
func genExplainMix(w *snapshot.World, rng *rand.Rand) []request {
	doms := &domainCycler{rng: rng, n: len(w.Domains), next: map[string][]int{}}
	reqs := make([]request, explainPool)
	for i := range reqs {
		d := w.Domains[doms.pick("explain")].Domain
		reqs[i] = request{kind: "explain", domain: d, path: "/unified/" + d + "/explain"}
	}
	return reqs
}

// runServe measures webiq-serve booted from a snapshot, built from the
// tree under test and driven over loopback by the seed's requests.
func runServe(r *run, mx mix) error {
	snap, err := prepareSnapshot(r)
	if err != nil {
		return err
	}
	if r.trace {
		return tracedServeRun(r, mx, snap)
	}
	reqs, want, err := serveInputs(r, mx, snap)
	if err != nil {
		return err
	}
	// The in-process server that answered for the checks is garbage
	// now, so the load generator runs on a small heap and its own GC
	// takes little from the CPUs it shares with the server.
	runtime.GC()

	// Each run boots servers one after another; each is timed to
	// ready, sent its share of the run's requests and stopped. A figure
	// is the median over servers, each scaled by the calibration kernel
	// timed just before it: a server process, or a stretch of the run,
	// in a slow state of the shared host moves one of them.
	per := int(math.Round(mx.capacity * r.seconds / servers))
	r.record["requests_per_server"] = per
	kinds := splitByKind(reqs)
	var setups, setupWalls, rawSetups, cpus, rawCPUs, rsss, p50s, tails, rates []float64
	var recs []map[string]any
	cal := newCalibrator()
	for i := 0; i < servers; i++ {
		scale := cal.scale()
		f, err := loadServer(r, mx, snap, reqs, kinds, want, per)
		if err != nil {
			return err
		}
		setups = append(setups, f.readyCPU*scale)
		rawSetups = append(rawSetups, f.readyCPU)
		setupWalls = append(setupWalls, f.ready)
		cpus = append(cpus, f.cpu*scale)
		rawCPUs = append(rawCPUs, f.cpu)
		f.record["scale"] = scale
		rsss = append(rsss, f.rss)
		p50s = append(p50s, f.p50)
		tails = append(tails, f.tail)
		rates = append(rates, f.rate)
		recs = append(recs, f.record)
		r.record["tail_quantile"] = f.q
	}
	r.record["calib_kernel_ms"] = cal.ms
	r.record["servers"] = recs
	r.record["wall_p50_ms"] = median(p50s)
	r.record["wall_tail_ms"] = median(tails)
	r.record["closed_loop_rps"] = median(rates)
	r.record["setup_wall_s"] = median(setupWalls)
	r.record["raw_setup_cpu_s"] = median(rawSetups)
	r.record["raw_op_cpu_ms"] = median(rawCPUs)
	r.set("setup_s", "s", median(setups))
	r.set("op_cpu_ms", "ms", median(cpus))
	r.set("peak_rss_mb", "MB", median(rsss))
	return nil
}

// serverFigures is what one server of a serve run measured.
type serverFigures struct {
	ready, readyCPU    float64
	cpu, rss           float64
	p50, tail, q, rate float64
	record             map[string]any
}

// warmShare is the part of a server's requests that warm it up with the
// whole mix before anything is measured.
const warmShare = 0.1

// splitByKind groups a request sequence by kind, each group in
// sequence order, the groups in serveKinds order.
func splitByKind(reqs []request) [][]request {
	var out [][]request
	for _, k := range serveKinds {
		var g []request
		for _, rq := range reqs {
			if rq.kind == k {
				g = append(g, rq)
			}
		}
		if len(g) > 0 {
			out = append(out, g)
		}
	}
	return out
}

// loadServer boots one webiq-serve, sends it n requests and stops it.
// The first tenth warm it up with the whole mix. The rest are split
// between the request kinds, sent one kind after another with nproc in
// flight (a closed loop: each connection sends its next request when
// the previous one completes), and the server's CPU time is read
// around each kind's phase. cpu is the geometric mean over kinds
// of the server's CPU time per request, so every kind weighs the same
// whatever its share of the sequence. Last it reads the server's peak
// RSS and stops it.
func loadServer(r *run, mx mix, snap string, reqs []request, kinds [][]request, want map[string][]byte, n int) (*serverFigures, error) {
	child, err := startServe(r.serveBin, snap)
	if err != nil {
		return nil, err
	}
	defer child.stop()
	pid := child.cmd.Process.Pid
	lg := newLoadGen(child.base, reqs, want)
	defer lg.close()
	conns := runtime.NumCPU()
	count := func(ph *phase) {
		r.attempted += ph.sent
		r.failed += ph.failed
		r.notes = append(r.notes, ph.notes...)
	}
	warm := int(warmShare * float64(n))
	count(lg.closedLoop(reqs, conns, warm))

	all := &phase{}
	perKindCPU := map[string]float64{}
	var logCPU float64
	for _, g := range kinds {
		c0, err := childCPU(pid)
		if err != nil {
			return nil, err
		}
		ph := lg.closedLoop(g, conns, (n-warm)/len(kinds))
		c1, err := childCPU(pid)
		if err != nil {
			return nil, err
		}
		count(ph)
		cpu := ms(c1-c0) / float64(ph.sent)
		perKindCPU[g[0].kind] = cpu
		logCPU += math.Log(cpu)
		all.add(ph)
	}
	rss, err := peakRSSMB(strconv.Itoa(pid))
	if err != nil {
		return nil, err
	}
	f := &serverFigures{ready: child.ready.Seconds(), readyCPU: child.readyCPU.Seconds(), rss: rss, rate: all.rate(),
		cpu: math.Exp(logCPU / float64(len(kinds)))}
	var perKind map[string][2]float64
	f.p50, f.tail, f.q, perKind = all.latency(mx.tailQ)
	ladder := map[string]float64{}
	for _, q := range []float64{0.75, 0.9, 0.95, 0.99} {
		_, v, _, _ := all.latency(q)
		ladder[strconv.FormatFloat(q, 'g', -1, 64)] = v
	}
	f.record = map[string]any{"ready_s": f.ready, "ready_cpu_s": f.readyCPU, "closed": all.summary(),
		"cpu_ms_per_req": f.cpu, "per_kind_cpu_ms_per_req": perKindCPU,
		"p50_ms": f.p50, "tail_ms": f.tail, "ops_per_s": f.rate,
		"per_kind_p50_tail_ms": perKind, "tail_ladder_ms": ladder}
	return f, nil
}

// serveInputs draws the seed's request sequence from the serve world
// and answers every distinct request in process, on a server booted
// from the snapshot the child serves: the bodies the child must
// reproduce byte for byte.
func serveInputs(r *run, mx mix, snap string) ([]request, map[string][]byte, error) {
	// The world stays mapped until exit: request fields alias it.
	world, err := snapshot.Load(snap)
	if err != nil {
		return nil, nil, err
	}
	srv, err := server.NewFromSnapshot(world)
	if err != nil {
		return nil, nil, err
	}
	r.record["world_seed"] = world.Meta.Seed
	r.record["snapshot_fingerprint"] = fmt.Sprintf("%016x", world.Fingerprint)
	reqs := mx.gen(world, rand.New(rand.NewSource(r.seed)))
	want, err := expectedBodies(srv, reqs)
	return reqs, want, err
}

// prepareSnapshot builds the serve world once per webiq-serve binary
// and reuses the file on later runs; building it is not timed.
func prepareSnapshot(r *run) (string, error) {
	bin, err := os.ReadFile(r.serveBin)
	if err != nil {
		return "", fmt.Errorf("webiq-serve binary: %w", err)
	}
	sum := sha256.Sum256(bin)
	path := filepath.Join(r.work, "snap", fmt.Sprintf("seed%d-%s.snap", serveWorldSeed, hex.EncodeToString(sum[:6])))
	if _, err := os.Stat(path); err == nil {
		return path, nil
	}
	w, err := snapshot.BuildWorld(snapshot.BuildConfig{Seed: serveWorldSeed, Scale: 1})
	if err != nil {
		return "", fmt.Errorf("build world: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return "", err
	}
	if err := w.Write(path); err != nil {
		return "", fmt.Errorf("write snapshot: %w", err)
	}
	return path, nil
}

// expectedBodies answers every distinct request in process.
func expectedBodies(srv *server.Server, reqs []request) (map[string][]byte, error) {
	want := map[string][]byte{}
	for _, rq := range reqs {
		if _, ok := want[rq.path]; ok {
			continue
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, rq.path, nil))
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("in-process %s: status %d", rq.path, rec.Code)
		}
		want[rq.path] = rec.Body.Bytes()
	}
	return want, nil
}

// serveChild is a running webiq-serve process.
type serveChild struct {
	cmd   *exec.Cmd
	base  string
	ready time.Duration // from start until /readyz answered 200
	// readyCPU is the server's CPU time, all threads, when /readyz
	// first answered 200.
	readyCPU time.Duration
	stderr   bytes.Buffer
	done     chan struct{}
}

// startServe boots webiq-serve with default flags on a free loopback
// port and waits until /readyz returns 200.
func startServe(bin, snap string) (*serveChild, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	c := &serveChild{base: "http://" + addr, done: make(chan struct{})}
	c.cmd = exec.Command(bin, "-snapshot", snap, "-addr", addr)
	c.cmd.Stderr = &c.stderr
	// The server must not outlive this process, even if it crashes.
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t := time.Now()
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start webiq-serve: %w", err)
	}
	go func() { _ = c.cmd.Wait(); close(c.done) }()
	client := &http.Client{Timeout: time.Second}
	for {
		select {
		case <-c.done:
			return nil, fmt.Errorf("webiq-serve exited during boot: %s", c.stderr.String())
		default:
		}
		if resp, err := client.Get(c.base + "/readyz"); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				c.ready = time.Since(t)
				if c.readyCPU, err = childCPU(c.cmd.Process.Pid); err != nil {
					c.stop()
					return nil, err
				}
				client.CloseIdleConnections()
				return c, nil
			}
		}
		if time.Since(t) > 60*time.Second {
			c.stop()
			return nil, fmt.Errorf("webiq-serve not ready after 60s: %s", c.stderr.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop terminates the server and waits for it to exit. It may be
// called more than once.
func (c *serveChild) stop() {
	select {
	case <-c.done:
		return
	default:
	}
	_ = c.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-c.done:
	case <-time.After(15 * time.Second):
		_ = c.cmd.Process.Kill()
		<-c.done
	}
}

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// statsDoc is the part of webiq-serve's /stats this benchmark reads.
type statsDoc struct {
	Routes  map[string]obs.RouteSummary `json:"routes"`
	Runtime obs.RuntimeSample           `json:"runtime"`
}

func fetchStats(base string) (*statsDoc, error) {
	resp, err := http.Get(base + "/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var s statsDoc
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		return nil, fmt.Errorf("decode /stats: %w", err)
	}
	return &s, nil
}
