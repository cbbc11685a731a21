package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"webiq/internal/server"
)

// replayConcurrent replays the request sequence in process from nproc
// callers with every mutex and blocking event profiled, and reports
// the wait by the package of the frame that contended, per 1,000
// requests replayed: the replay runs for a fixed time, so a total
// would grow with the number of requests a faster server gets through.
func replayConcurrent(r *run, srv *server.Server, reqs []request, want map[string][]byte, dur time.Duration) error {
	var next, sent, failed atomic.Int64
	var mu sync.Mutex
	var notes []string
	runtime.SetMutexProfileFraction(1)
	runtime.SetBlockProfileRate(1)
	var wg sync.WaitGroup
	deadline := time.Now().Add(dur)
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			bw := &bodyWriter{h: http.Header{}}
			for time.Now().Before(deadline) {
				rq := &reqs[int(next.Add(1)-1)%len(reqs)]
				sent.Add(1)
				if err := serveInProcess(srv, bw, httptest.NewRequest(http.MethodGet, rq.path, nil), want[rq.path]); err != nil {
					failed.Add(1)
					mu.Lock()
					notes = append(notes, err.Error())
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	runtime.SetMutexProfileFraction(0)
	runtime.SetBlockProfileRate(0)
	r.attempted += int(sent.Load())
	kreq := float64(sent.Load()) / 1000
	for _, n := range notes {
		r.fail("%s", n)
	}
	for _, prof := range []string{"mutex", "block"} {
		var buf bytes.Buffer
		if err := pprof.Lookup(prof).WriteTo(&buf, 1); err != nil {
			return err
		}
		for pkg, waitMs := range contentionByPackage(buf.String()) {
			r.set("runtime."+prof+"_wait_ms_per_kreq."+pkg, "ms/kreq", waitMs/kreq)
		}
	}
	return nil
}

// contentionByPackage sums a mutex or block profile in its debug=1 text
// form by contentionPkgs bucket, in milliseconds. A record's bucket is
// the package of its first frame outside the runtime and sync: the code
// that took the lock or waited. Records with no such frame (the
// runtime's own idle goroutines) and records of this program's own
// goroutines (the replay waiting for its callers) are left out.
func contentionByPackage(text string) map[string]float64 {
	out := map[string]float64{}
	cyclesPerSec := 0.0
	var cycles float64
	attributed := true
	for _, line := range strings.Split(text, "\n") {
		switch {
		case strings.HasPrefix(line, "cycles/second="):
			cyclesPerSec, _ = strconv.ParseFloat(strings.TrimPrefix(line, "cycles/second="), 64)
		case strings.Contains(line, " @ "):
			cycles, _ = strconv.ParseFloat(strings.Fields(line)[0], 64)
			attributed = false
		case strings.HasPrefix(line, "#\t") && !attributed:
			f := strings.Split(line, "\t")
			if len(f) < 3 {
				continue
			}
			if b, ok := bucketOf(f[2]); ok {
				attributed = true
				if b != "" {
					out[b] += cycles
				}
			}
		}
	}
	if cyclesPerSec <= 0 {
		return map[string]float64{}
	}
	for k, v := range out {
		out[k] = v / cyclesPerSec * 1000
	}
	return out
}

// bucketOf maps a profile frame such as
// "webiq/internal/deepweb.(*Pool).charge+0x3c" to its bucket; ok is
// false for runtime and sync frames, which only say how it waited, and
// the bucket is empty for this program's own frames.
func bucketOf(frame string) (string, bool) {
	fn, _, _ := strings.Cut(frame, "+0x")
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return "", false
	}
	pkg := fn[:slash+1+dot]
	switch {
	case pkg == "runtime" || pkg == "sync" || strings.HasPrefix(pkg, "internal/") || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "sync/"):
		return "", false
	case pkg == "main":
		return "", true
	case strings.HasPrefix(pkg, "webiq/internal/"):
		p := strings.TrimPrefix(pkg, "webiq/internal/")
		for _, b := range contentionPkgs {
			if p == b {
				return p, true
			}
		}
		return "other", true
	}
	return "stdlib", true
}
