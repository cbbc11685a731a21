package main

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// failedMs is the latency recorded for a failed request: longer than
// any run, so a failure counts as missing every latency limit.
const failedMs = 1e6

// loadGen drives a webiq-serve over loopback from one process with at
// most nproc connections, checking every response body against the
// in-process answer.
type loadGen struct {
	base string
	reqs []request
	want map[string][]byte
	tr   *http.Transport
	hc   *http.Client
}

func newLoadGen(base string, reqs []request, want map[string][]byte) *loadGen {
	n := runtime.NumCPU()
	tr := &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n, DisableCompression: true}
	return &loadGen{base: base, reqs: reqs, want: want, tr: tr,
		hc: &http.Client{Transport: tr, Timeout: 10 * time.Second}}
}

func (lg *loadGen) close() { lg.tr.CloseIdleConnections() }

// do sends one request; it succeeds on 200 with the expected body.
func (lg *loadGen) do(rq *request, buf *bytes.Buffer) error {
	resp, err := lg.hc.Get(lg.base + rq.path)
	if err != nil {
		return err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	switch {
	case err != nil:
		return fmt.Errorf("%s: read body: %w", rq.path, err)
	case resp.StatusCode != http.StatusOK:
		return fmt.Errorf("%s: status %d", rq.path, resp.StatusCode)
	case !bytes.Equal(buf.Bytes(), lg.want[rq.path]):
		return fmt.Errorf("%s: body differs from the in-process answer (%d bytes, want %d)", rq.path, buf.Len(), len(lg.want[rq.path]))
	}
	return nil
}

// phase is what one load phase sent and observed.
type phase struct {
	sent, ok, failed int
	lat, late        []float64 // ms per request; late only in an open loop
	kind             []string  // the kind of each request in lat
	elapsed          time.Duration
	notes            []string
}

func (ph *phase) note(mu *sync.Mutex, err error) {
	mu.Lock()
	if len(ph.notes) < 5 {
		ph.notes = append(ph.notes, err.Error())
	}
	mu.Unlock()
}

// openLoop sends at a fixed rate for dur regardless of responses, the
// way independent users arrive. Each request is timed from when it was
// due, so a stall also delays every request queued behind it; late is
// how far behind schedule the generator picked a request up.
func (lg *loadGen) openLoop(rate float64, dur time.Duration) *phase {
	n := int(rate * dur.Seconds())
	if n < 1 {
		n = 1
	}
	ph := &phase{sent: n, lat: make([]float64, n), late: make([]float64, n), kind: make([]string, n)}
	type job struct {
		i   int
		due time.Time
	}
	jobs := make(chan job, n) // one slot per send: pacing never waits on workers
	var failed atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for j := range jobs {
				ph.late[j.i] = ms(time.Since(j.due))
				rq := &lg.reqs[j.i%len(lg.reqs)]
				ph.kind[j.i] = rq.kind
				if err := lg.do(rq, &buf); err != nil {
					failed.Add(1)
					ph.lat[j.i] = failedMs
					ph.note(&mu, err)
					continue
				}
				ph.lat[j.i] = ms(time.Since(j.due))
			}
		}()
	}
	start := time.Now().Add(20 * time.Millisecond)
	pace(n, start, rate, func(i int, due time.Time) { jobs <- job{i, due} })
	close(jobs)
	wg.Wait()
	ph.elapsed = time.Since(start)
	ph.failed = int(failed.Load())
	ph.ok = n - ph.failed
	return ph
}

// pace calls send for request i at start + i/rate. It sleeps in
// nanosleep on a thread of its own: the Go timer wakes up to a
// millisecond late, which at 1,000 req/s would dominate the latency,
// and spinning would take a core the server needs.
func pace(n int, start time.Time, rate float64, send func(i int, due time.Time)) {
	runtime.LockOSThread()
	// Unlock before returning so the thread is not destroyed with a
	// child process it may have started (Pdeathsig is per thread).
	defer runtime.UnlockOSThread()
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			ts := syscall.NsecToTimespec(int64(d))
			for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
			}
		}
		send(i, due)
	}
}

// closedLoop sends n requests, cycling through reqs in order, with
// conns in flight: each connection sends its next request when the
// previous one completes, the way callers that wait for replies load a
// server.
func (lg *loadGen) closedLoop(reqs []request, conns, n int) *phase {
	ph := &phase{sent: n}
	var next, failed atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	lats := make([][]float64, conns)
	kinds := make([][]string, conns)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				rq := &reqs[i%len(reqs)]
				kinds[w] = append(kinds[w], rq.kind)
				t := time.Now()
				err := lg.do(rq, &buf)
				if err != nil {
					failed.Add(1)
					ph.note(&mu, err)
					lats[w] = append(lats[w], failedMs)
					continue
				}
				lats[w] = append(lats[w], ms(time.Since(t)))
			}
		}(w)
	}
	wg.Wait()
	for w, l := range lats {
		ph.lat = append(ph.lat, l...)
		ph.kind = append(ph.kind, kinds[w]...)
	}
	ph.elapsed = time.Since(start)
	ph.failed = int(failed.Load())
	ph.ok = ph.sent - ph.failed
	return ph
}

// add appends another phase's requests to ph.
func (ph *phase) add(o *phase) {
	ph.sent += o.sent
	ph.ok += o.ok
	ph.failed += o.failed
	ph.lat = append(ph.lat, o.lat...)
	ph.kind = append(ph.kind, o.kind...)
	ph.elapsed += o.elapsed
}

// latency returns the phase's p50 and its tail, each the geometric
// mean over request kinds of that kind's own figure, so that every
// kind weighs the same whatever its share of the requests. A kind's
// tail is its highest percentile, at most maxQ, with at least ten
// requests beyond it; q is the lowest such percentile over kinds.
// perKind holds each kind's p50 and tail.
func (ph *phase) latency(maxQ float64) (p50, tl, q float64, perKind map[string][2]float64) {
	byKind := map[string][]float64{}
	for i, l := range ph.lat {
		byKind[ph.kind[i]] = append(byKind[ph.kind[i]], l)
	}
	perKind = map[string][2]float64{}
	var logP50, logTail float64
	q = 1
	for k, ls := range byKind {
		kq, kt := tail(ls, maxQ)
		q = math.Min(q, kq)
		km := median(ls)
		perKind[k] = [2]float64{km, kt}
		logP50 += math.Log(km)
		logTail += math.Log(kt)
	}
	n := float64(len(byKind))
	return math.Exp(logP50 / n), math.Exp(logTail / n), q, perKind
}

// rate is the closed loop's successful completions per second.
func (ph *phase) rate() float64 { return float64(ph.ok) / ph.elapsed.Seconds() }

func (ph *phase) summary() map[string]any {
	s := map[string]any{"sent": ph.sent, "succeeded": ph.ok, "failed": ph.failed,
		"elapsed_s": ph.elapsed.Seconds()}
	if len(ph.late) > 0 {
		_, late := tail(ph.late, 0.99)
		s["late_p99_ms"] = late
	}
	return s
}
