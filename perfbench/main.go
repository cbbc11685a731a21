// Command perfbench measures what WebIQ costs, end to end and layer by
// layer, on four workloads: an offline world build (build), the warm
// accuracy experiments behind webiq-bench (sweep), and a snapshot-booted
// webiq-serve driven over loopback by a query mix (serve-query) or by
// provenance explains (serve-explain).
//
//	perfbench -workload build -seed 1 -seconds 15 -trace 0
//
// Run it through run.sh from the repository root, which builds this
// program and webiq-serve from the tree under test first. The last
// line of standard output is one JSON object: correct, attempted,
// failed and metrics. With -trace 0 the metrics are the end-to-end
// ones; with -trace 1 they are the per-layer ones, measured by this
// program's own timers around calls into each module's public
// functions. The line before it records the host and the inputs.
// README.md lists every metric and the workload it is meant to move.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is the state one workload invocation fills in: the metrics it
// reports, its op counts, and the input and host record printed next
// to the result.
type run struct {
	seed     int64
	seconds  float64
	trace    bool
	work     string // scratch directory for snapshots and child state
	serveBin string

	metrics   map[string]metric
	attempted int
	failed    int
	notes     []string // why an op failed, first few only
	record    map[string]any
}

func (r *run) set(name, unit string, v float64) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// fail counts one failed op and keeps the first few reasons for stderr.
func (r *run) fail(format string, args ...any) {
	r.failed++
	if len(r.notes) < 10 {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(*run) error{
	"build":         runBuild,
	"sweep":         runSweep,
	"serve-query":   func(r *run) error { return runServe(r, queryMix) },
	"serve-explain": func(r *run) error { return runServe(r, explainMix) },
}

func main() {
	workload := flag.String("workload", "", "build, sweep, serve-query or serve-explain")
	seed := flag.Int64("seed", 1, "workload seed: the first world of build and sweep, the request draw of serve-*")
	seconds := flag.Float64("seconds", 10, "how long to measure")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end ones")
	work := flag.String("work", ".bench_build", "scratch directory for snapshots")
	serveBin := flag.String("serve-bin", ".bench_build/bin/webiq-serve", "webiq-serve binary built from the tree under test")
	unit := flag.Bool("unit", false, "internal: measure one world of a build or sweep run in this process and print its figures")
	ops := flag.Int("ops", 3, "internal: timed ops of a -unit process")
	flag.Parse()

	if *unit {
		if err := runUnit(*workload, *seed, *ops); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	fn, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %g, trace %d)\n", *workload, *seconds, *trace)
		os.Exit(2)
	}
	r := &run{
		seed: *seed, seconds: *seconds, trace: *trace == 1,
		work: *work, serveBin: *serveBin,
		metrics: map[string]metric{},
		record:  hostRecord(*workload, *seed),
	}
	if r.trace {
		// Every per-layer metric is reported on every workload; a layer
		// the workload does not exercise reads 0.
		for _, m := range perLayer {
			r.set(m.name, m.unit, 0)
		}
	}
	if err := fn(r); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if r.attempted < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: no op completed")
		os.Exit(1)
	}
	for _, n := range r.notes {
		fmt.Fprintln(os.Stderr, "perfbench: failed:", n)
	}
	out := bufio.NewWriter(os.Stdout)
	enc := json.NewEncoder(out)
	_ = enc.Encode(map[string]any{"record": r.record})
	_ = enc.Encode(result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.metrics,
	})
	if err := out.Flush(); err != nil {
		os.Exit(1)
	}
}

// hostRecord is the host and input record printed with every result,
// so a number can be traced to the machine and the seed behind it.
func hostRecord(workload string, seed int64) map[string]any {
	return map[string]any{
		"workload":   workload,
		"seed":       seed,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"cpu_model":  cpuModel(),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB reads VmHWM (peak resident set) of a process from /proc;
// pid "self" names this one.
func peakRSSMB(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(v), "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %v", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}
